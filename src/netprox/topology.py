"""Communication graphs: construction, Laplacian spectra, mixing matrices,
and the two types every round is written in.

A GraphOperator is an N x N matrix whose nonzero entries lie on the graph's
closed neighbourhoods, checked once at construction; that check is what
keeps every round local. A NetworkState stacks all agents' local state,
one row per agent: n-vectors as (N, n) arrays, scalars as (N,) arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType, SimpleNamespace

import numpy as np

from .errors import ProtocolError

__all__ = [
    "Graph",
    "GraphOperator",
    "NetworkState",
    "SpectralSummary",
    "MixingPair",
    "TopologySpec",
    "build_topology",
    "spectral_summary",
    "mixing_pair",
    "edge_list_text",
]

ZERO_EIG_REL_TOL = 1e-9

KINDS = ("star", "circle", "clique", "small_world")


@dataclass(frozen=True)
class Graph:
    """Undirected connected graph with edges oriented low index to high index.

    Nodes are 0-based internally; text exports are 1-based.
    """

    node_count: int
    edges: tuple[tuple[int, int], ...]
    neighbor_lists: tuple[tuple[int, ...], ...] = field(init=False)
    degrees: tuple[int, ...] = field(init=False)
    # the edges' (low, high) endpoint index arrays and the Laplacian, built once
    edge_ends: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)
    _laplacian: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.node_count
        if n < 2:
            raise ValueError(f"need at least 2 nodes, got {n}")
        seen = set()
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for i, j in self.edges:
            if not (0 <= i < j < n):
                raise ValueError(f"edge ({i},{j}) violates 0 <= i < j < N")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i},{j})")
            seen.add((i, j))
            nbrs[i].add(j)
            nbrs[j].add(i)
        object.__setattr__(
            self, "neighbor_lists", tuple(tuple(sorted(s)) for s in nbrs)
        )
        object.__setattr__(self, "degrees", tuple(len(s) for s in nbrs))
        # connectivity by traversal
        stack, reached = [0], {0}
        while stack:
            u = stack.pop()
            for v in nbrs[u]:
                if v not in reached:
                    reached.add(v)
                    stack.append(v)
        if len(reached) != n:
            raise ValueError("graph is not connected")
        i, j = np.array(self.edges, dtype=np.intp).reshape(-1, 2).T
        omega = np.zeros((n, n))
        omega[i, j] = omega[j, i] = -1.0
        np.fill_diagonal(omega, self.degrees)
        for a in (i, j, omega):
            a.flags.writeable = False
        object.__setattr__(self, "edge_ends", (i, j))
        object.__setattr__(self, "_laplacian", omega)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def max_degree(self) -> int:
        return max(self.degrees)

    @property
    def min_degree(self) -> int:
        return min(self.degrees)

    def laplacian(self) -> np.ndarray:
        """The graph Laplacian Omega (read-only)."""
        return self._laplacian

    def incidence(self) -> np.ndarray:
        """Oriented incidence matrix M, one row per edge: +1 at i, -1 at j."""
        m = np.zeros((self.edge_count, self.node_count))
        rows = np.arange(self.edge_count)
        m[rows, self.edge_ends[0]] = 1.0
        m[rows, self.edge_ends[1]] = -1.0
        return m


def _as_slice(idx: np.ndarray):
    """Consecutive indices as the basic slice over them; any others as they are."""
    if (np.diff(idx) == 1).all():
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


@dataclass(frozen=True)
class GraphOperator:
    """A matrix supported on the graph: row i holds agent i's weights for
    itself and its neighbours and is zero elsewhere.

    ``op @ X`` mixes a stacked (N, n) payload as every agent would from the
    messages it receives: a sum from 0 of its own term, then its neighbours'
    in index order. The neighbour terms go slot by slot over degree buckets:
    slot k adds the k-th neighbour's term to the rows that have one (every
    row: a plain in-place add), so no row adds a padded zero term. Rows and
    neighbours that are consecutive indices are kept as basic slices (the
    star's hub slots: ``out[0:1] += X[k:k+1] * w``), which index as views.
    """

    matrix: np.ndarray
    graph: Graph
    # the diagonal column, then per slot k (rows with a k-th neighbour, or None
    # for every row; their k-th neighbours; the weights as a column)
    _diag: np.ndarray = field(init=False, repr=False)
    _slots: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        g = self.graph
        N = g.node_count
        if m.shape != (N, N):
            raise ValueError(f"matrix has shape {m.shape}, expected ({N}, {N})")
        off = np.argwhere((m != 0) & (g.laplacian() == 0))
        if off.size:
            i, j = off[0]
            raise ValueError(f"entry [{i},{j}] = {m[i, j]!r} must be zero off the graph")
        slots = []
        for k in range(g.max_degree):
            rows = np.array([i for i, nb in enumerate(g.neighbor_lists) if len(nb) > k])
            ids = np.array([g.neighbor_lists[i][k] for i in rows])
            weights = m[rows, ids][:, None]
            slots.append((None if rows.size == N else _as_slice(rows), _as_slice(ids), weights))
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_diag", np.diag(m)[:, None])
        object.__setattr__(self, "_slots", tuple(slots))

    def __matmul__(self, X: np.ndarray) -> np.ndarray:
        N = self.graph.node_count
        if X.ndim != 2 or len(X) != N:
            raise ProtocolError(f"mixing needs an (N, n) payload with N = {N}, got {X.shape}")
        out = self._diag * X
        out += 0.0  # the sum's start at 0, which turns a -0.0 into +0.0
        for rows, ids, weights in self._slots:
            term = X[ids]
            if isinstance(ids, slice):
                term = term * weights  # a view of X: scaling it in place would write into X
            else:
                term *= weights  # a gathered copy
            if rows is None:
                out += term
            else:
                out[rows] += term
        return out


class NetworkState:
    """Every agent's local state, stacked: row i of each field is agent i's.

    Fields of shape (N, n) are the n-vectors an agent stores, fields of shape
    (N,) its scalars: read-only arrays, read as ``state.x``. ``vector_count``
    is the number of n-vectors, kept up to date where fields are stored, the
    only place it can change. ``ops`` holds the graph operators whose rows the
    agents know. Indexing and iteration yield snapshots of agent i's rows
    (``state[i].x``, ``state[i].node_id``, scalars as Python numbers);
    ``a + b`` lists the snapshots of both states.
    """

    __slots__ = ("ops", "vector_count", "__dict__")  # the fields are the instance dict

    def __init__(self, fields: dict, ops: dict | None = None) -> None:
        object.__setattr__(self, "ops", {} if ops is None else ops)
        self._store(fields, len(next(iter(fields.values()), ())), 0)

    def _store(self, fields: dict, N: int, vector_count: int) -> None:
        """Check each field for one row per node and a name free in the class;
        freeze, store, and count the n-vectors from the vector_count before."""
        old = self.__dict__
        for name, a in fields.items():
            if name in _STATE_ATTRS:
                raise ValueError(f"field {name!r} would shadow NetworkState.{name}")
            if len(a) != N:
                raise ValueError(f"field {name!r} has {len(a)} rows, expected one per node ({N})")
            a.flags.writeable = False
            vector_count += (a.ndim == 2) - (name in old and old[name].ndim == 2)
        old.update(fields)
        object.__setattr__(self, "vector_count", vector_count)

    def _immutable(self, name: str, *value) -> None:
        raise AttributeError(f"cannot set or delete {name!r}: a NetworkState is immutable")

    __setattr__ = __delattr__ = _immutable

    @property
    def fields(self) -> MappingProxyType:  # by name, read-only
        return MappingProxyType(self.__dict__)

    def evolve(self, **changes) -> "NetworkState":
        """This state with these fields replaced: only they need the check and the freeze."""
        new = object.__new__(NetworkState)
        object.__setattr__(new, "ops", self.ops)
        new.__dict__.update(self.__dict__)
        new._store(changes, len(self.x), self.vector_count)
        return new

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, i: int) -> SimpleNamespace:
        if not 0 <= i < len(self):
            raise IndexError(i)
        rows = {k: a[i] if a.ndim > 1 else a[i].item() for k, a in self.fields.items()}
        return SimpleNamespace(node_id=i, **rows)

    def __add__(self, other) -> list:
        return [*self, *other]


_STATE_ATTRS = frozenset(dir(NetworkState))  # names a field may not shadow


@dataclass(frozen=True)
class SpectralSummary:
    eigenvalues: np.ndarray
    psi_min_pos: float
    psi_max: float


@dataclass(frozen=True)
class MixingPair:
    W: GraphOperator
    W_tilde: GraphOperator
    lam_min_tilde: float


def build_topology(
    kind: str, N: int, extra_edges: int = 0, seed: int | None = None
) -> Graph:
    """Build one of the benchmark topologies.

    Parameters
    ----------
    kind : str
        One of ``star``, ``circle``, ``clique``, ``small_world``.
    N : int
        Node count, at least 2.
    extra_edges : int
        Number of random non-cycle edges added on top of the cycle.
        Only meaningful for ``small_world``.
    seed : int or None
        Seeds the extra-edge sampler; the result is deterministic for a
        fixed seed. Only valid for ``small_world``; required with extra_edges > 0.

    Returns
    -------
    Graph
        Connected graph with the requested structure. The star's hub is
        node 0 internally (node 1 in 1-based exports).
    """
    if kind not in KINDS:
        raise ValueError(f"unknown topology kind {kind!r}")
    if N < 2:
        raise ValueError(f"need at least 2 nodes, got {N}")
    if kind != "small_world" and (extra_edges or seed is not None):
        raise ValueError(f"{'extra_edges' if extra_edges else 'seed'} is only valid for small_world, got kind={kind!r}")

    if kind == "star":
        edges = [(0, j) for j in range(1, N)]
    elif kind == "clique":
        edges = [(i, j) for i in range(N) for j in range(i + 1, N)]
    else:
        cycle = {tuple(sorted((i, (i + 1) % N))) for i in range(N)}
        edges = sorted(cycle)
        if kind == "small_world":
            free = [
                (i, j)
                for i in range(N)
                for j in range(i + 1, N)
                if (i, j) not in cycle
            ]
            if extra_edges > len(free):
                raise ValueError(
                    f"extra_edges={extra_edges} exceeds the {len(free)} available non-cycle pairs"
                )
            if extra_edges:
                if seed is None:
                    raise ValueError("extra_edges > 0 needs a seed for reproducibility")
                rng = np.random.default_rng(seed)
                picks = rng.choice(len(free), size=extra_edges, replace=False)
                edges.extend(free[k] for k in sorted(picks))
    return Graph(node_count=N, edges=tuple(sorted(edges)))


def spectral_summary(g: Graph) -> SpectralSummary:
    """Laplacian spectrum via a dense symmetric eigensolver.

    psi_min_pos is the second-smallest eigenvalue (the smallest positive one
    for a connected graph). Zero eigenvalues are identified with a threshold
    relative to psi_max.
    """
    omega = g.laplacian()
    try:
        eigs = np.linalg.eigvalsh(omega)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"Laplacian eigendecomposition failed: {exc}") from exc
    psi_max = float(eigs[-1])
    zero_count = int(np.sum(np.abs(eigs) < ZERO_EIG_REL_TOL * max(psi_max, 1.0)))
    if zero_count != 1:
        raise RuntimeError(
            f"expected exactly one zero Laplacian eigenvalue, found {zero_count}"
        )
    return SpectralSummary(
        eigenvalues=eigs,
        psi_min_pos=float(eigs[1]),
        psi_max=psi_max,
    )


def mixing_pair(g: Graph) -> MixingPair:
    """PG-EXTRA mixing matrices W = I - Omega/(d_max+1) and W~ = (I+W)/2."""
    omega = g.laplacian()
    w = np.eye(g.node_count) - omega / (g.max_degree + 1)
    w_tilde = 0.5 * (np.eye(g.node_count) + w)
    lam_min = float(np.linalg.eigvalsh(w_tilde)[0])
    return MixingPair(GraphOperator(w, g), GraphOperator(w_tilde, g), lam_min_tilde=lam_min)


@dataclass(frozen=True)
class TopologySpec:
    """The topology recipe ``netprox gen`` writes to topology.txt; the seed is the source of truth."""

    kind: str
    N: int
    extra_edges: int = 0
    seed: int | None = None

    def to_text(self) -> str:
        lines = [f"kind={self.kind}", f"N={self.N}", f"extra_edges={self.extra_edges}"]
        lines.append(f"seed={'none' if self.seed is None else self.seed}")
        return "\n".join(lines) + "\n"


def edge_list_text(g: Graph) -> str:
    """One edge per line as 'i j', 1-based node ids."""
    return "\n".join(f"{i + 1} {j + 1}" for i, j in g.edges) + "\n"
