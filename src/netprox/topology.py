"""Communication graphs: construction, Laplacian spectra, mixing matrices,
and the two types every round is written in.

A GraphOperator is an N x N matrix whose nonzero entries lie on the graph's
closed neighbourhoods, checked once at construction; that check is what
keeps every round local. A NetworkState stacks all agents' local state,
one row per agent: n-vectors as (N, n) arrays, scalars as (N,) arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

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


@dataclass(frozen=True)
class GraphOperator:
    """A matrix supported on the graph: row i holds agent i's weights for
    itself and its neighbours and is zero elsewhere.

    ``op @ X`` mixes a stacked (N, n) payload as every agent would from the
    messages it receives: its own term first, then its neighbours' in index
    order, gathered slot by slot (short rows are padded with a zero weight
    on the agent itself).
    """

    matrix: np.ndarray
    graph: Graph
    _slots: tuple = field(init=False, repr=False)  # (row ids, weights) per term

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
        rows = np.arange(N)
        slots = [(slice(None), np.diag(m)[:, None])]
        for k in range(g.max_degree):
            ids = np.array([nb[k] if k < len(nb) else i for i, nb in enumerate(g.neighbor_lists)])
            slots.append((ids, np.where(ids != rows, m[rows, ids], 0.0)[:, None]))
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_slots", tuple(slots))

    def __matmul__(self, X: np.ndarray) -> np.ndarray:
        N = self.graph.node_count
        if np.ndim(X) != 2 or len(X) != N:
            raise ProtocolError(f"mixing needs an (N, n) payload with N = {N}, got {np.shape(X)}")
        return sum(weights * X[ids] for ids, weights in self._slots)


@dataclass(frozen=True, eq=False)
class NetworkState:
    """Every agent's local state, stacked: row i of each field is agent i's.

    Fields of shape (N, n) are the n-vectors an agent stores, fields of
    shape (N,) its scalars; ``state.x`` reads a field, and the arrays are
    made read-only. ``ops`` holds the graph operators whose rows the agents
    know. For callers outside the rounds, indexing and iteration yield a
    snapshot of agent i's read-only rows (``state[i].x``, ``state[i].node_id``),
    scalars as Python numbers; ``a + b`` lists the snapshots of both states.
    """

    fields: dict
    ops: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len({len(a) for a in self.fields.values()}) > 1:
            raise ValueError("every field needs one row per node")
        for a in self.fields.values():
            a.flags.writeable = False

    def __getattr__(self, name: str):
        try:
            return self.__dict__["fields"][name]
        except KeyError:
            raise AttributeError(name) from None

    def evolve(self, **changes) -> "NetworkState":
        return NetworkState({**self.fields, **changes}, self.ops)

    def vector_count(self) -> int:
        """n-vectors each agent stores: the number of (N, n) fields."""
        return sum(a.ndim == 2 for a in self.fields.values())

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, i: int) -> SimpleNamespace:
        if not 0 <= i < len(self):
            raise IndexError(i)
        rows = {k: a[i] if a.ndim > 1 else a[i].item() for k, a in self.fields.items()}
        return SimpleNamespace(node_id=i, **rows)

    def __add__(self, other) -> list:
        return [*self, *other]


@dataclass(frozen=True)
class SpectralSummary:
    eigenvalues: np.ndarray
    psi_min_pos: float
    psi_max: float
    frob_norm_sq: float


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
        fixed seed. Required for ``small_world`` with extra_edges > 0.

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
    if kind != "small_world" and extra_edges:
        raise ValueError(f"extra_edges is only valid for small_world, got kind={kind!r}")

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
        frob_norm_sq=float(np.sum(omega * omega)),
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
    """Serializable recipe for a topology; the seed is the source of truth."""

    kind: str
    N: int
    extra_edges: int = 0
    seed: int | None = None

    def build(self) -> Graph:
        return build_topology(self.kind, self.N, self.extra_edges, self.seed)

    def to_text(self) -> str:
        lines = [f"kind={self.kind}", f"N={self.N}", f"extra_edges={self.extra_edges}"]
        lines.append(f"seed={'none' if self.seed is None else self.seed}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "TopologySpec":
        fields: dict[str, str] = {}
        for ln, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"line {ln}: expected key=value, got {raw!r}")
            key, _, val = line.partition("=")
            fields[key.strip()] = val.strip()
        missing = {"kind", "N", "extra_edges", "seed"} - fields.keys()
        if missing:
            raise ValueError(f"missing keys: {sorted(missing)}")
        seed = None if fields["seed"] == "none" else int(fields["seed"])
        return cls(
            kind=fields["kind"],
            N=int(fields["N"]),
            extra_edges=int(fields["extra_edges"]),
            seed=seed,
        )


def edge_list_text(g: Graph) -> str:
    """One edge per line as 'i j', 1-based node ids."""
    return "\n".join(f"{i + 1} {j + 1}" for i, j in g.edges) + "\n"
