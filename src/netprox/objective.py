"""Per-node composite objectives for the sparse group LASSO benchmark.

Each node i holds Phi_i = xi_i + f_i with

    xi_i(x) = beta1 ||x||_1 + beta2 ||x||_{G_i}
    f_i(x)  = h_delta(A_i x - b_i)

where h_delta is the Huber loss and G_i a partition of the coordinates into
groups. xi_i has a closed-form prox (soft threshold then group shrink) and
f_i has an L_i-Lipschitz gradient with L_i = sigma_max(A_i)^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GroupPartition",
    "NetworkObjective",
    "NodeObjective",
    "NoisyOracle",
    "huber",
    "prox_sparse_group",
    "oracle_grad",
    "group_norm",
    "network",
    "power_iteration_sq_norm",
    "row_dot",
    "objective_to_text",
    "objective_from_text",
]

POWER_TOL = 1e-10  # power iteration's relative tolerance on sigma_max(A)^2
POWER_MAX_ITER = 50000  # power iteration's cap on steps


@dataclass(frozen=True)
class GroupPartition:
    """Disjoint index groups covering {0, ..., n-1}. index holds them as the
    rows of a (K, g) array, short groups padded with the sentinel entry n."""

    groups: tuple[np.ndarray, ...]
    index: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.groups:
            raise ValueError("partition needs at least one group")
        cleaned = tuple(np.asarray(g, dtype=np.intp) for g in self.groups)
        object.__setattr__(self, "groups", cleaned)
        total = np.concatenate(cleaned)
        if any(g.size == 0 for g in cleaned):
            raise ValueError("empty group in partition")
        n = total.size
        if np.unique(total).size != n or total.min() != 0 or total.max() != n - 1:
            raise ValueError("groups must disjointly cover 0..n-1")
        index = np.full((len(cleaned), max(g.size for g in cleaned)), n, dtype=np.intp)
        for row, g in zip(index, cleaned):
            row[: g.size] = g
        object.__setattr__(self, "index", index)

    @property
    def n(self) -> int:
        return sum(g.size for g in self.groups)

    @property
    def K(self) -> int:
        return len(self.groups)


def row_dot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """a @ b for each pair of rows (last axis), batched: the dot product a
    per-row loop takes, not a pairwise sum, so the bits match it."""
    return (A[..., None, :] @ B[..., :, None])[..., 0, 0]


def _flat(X: np.ndarray) -> np.ndarray:
    """The rows of X (N, n), each followed by a zero sentinel entry, as one flat
    array of N (n + 1) entries: the array the group indices point into."""
    return np.concatenate((X, np.zeros((len(X), 1))), axis=1).ravel()


def _group_norm_sums(X: np.ndarray, index: np.ndarray) -> np.ndarray:
    """||x_i||_{G_i} for every row, the group norms summed in group order."""
    E = _flat(X)[index]
    return sum(np.sqrt(row_dot(E, E)).T)


def _sparse_group_prox(V, t, beta1, beta2, index) -> np.ndarray:
    """prox_sparse_group on each row of V; t and the weights are scalars or columns."""
    eta = np.sign(V) * np.maximum(np.abs(V) - t * beta1, 0.0)
    flat = _flat(eta)
    E = flat[index]
    norms = np.sqrt(row_dot(E, E))
    thresh = t * beta2
    keep = norms > thresh
    scale = np.where(keep, 1.0 - thresh / np.where(keep, norms, 1.0), 0.0)
    out = np.zeros_like(flat)
    out[index] = E * scale[..., None]
    return out.reshape(len(eta), -1)[:, :-1].copy()


def group_norm(x: np.ndarray, partition: GroupPartition) -> float:
    """Sum over groups of the Euclidean norm of the group's coordinates."""
    return float(_group_norm_sums(np.asarray(x, dtype=float)[None], partition.index[None])[0])


def huber(y: np.ndarray, delta):
    """Huber loss h_delta(y) = sum_j 0.5 y_j^2 on |y_j| <= delta, else delta |y_j| - delta^2/2.

    Its gradient clamps y to [-delta, delta] coordinatewise and is 1-Lipschitz.
    Rows y (N, m) with a positive delta column (N, 1) give one value per row.
    """
    if np.isscalar(delta) and delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError("non-finite input to huber")
    a = np.abs(y)
    value = np.sum(np.where(a <= delta, 0.5 * y * y, delta * a - 0.5 * delta * delta), axis=-1)
    return float(value) if y.ndim == 1 else value


def prox_sparse_group(
    xbar: np.ndarray,
    t: float,
    beta1: float,
    beta2: float,
    partition: GroupPartition,
) -> np.ndarray:
    """Exact prox of t * (beta1 ||.||_1 + beta2 ||.||_G) at xbar.

    Soft-threshold coordinatewise at t*beta1, then shrink each group toward
    zero by the factor max(1 - t*beta2/||eta_g||, 0). Groups whose
    soft-thresholded norm does not exceed t*beta2 map to zero exactly, so no
    division by zero can occur.
    """
    if t <= 0:
        raise ValueError(f"prox step t must be positive, got {t}")
    if beta1 < 0 or beta2 < 0:
        raise ValueError("negative regularization weight")
    xbar = np.asarray(xbar, dtype=float)
    return _sparse_group_prox(xbar[None], t, beta1, beta2, partition.index[None])[0]


def power_iteration_sq_norm(A: np.ndarray) -> float:
    """sigma_max(A)^2 by power iteration on A^T A with a deterministic start."""
    A = np.asarray(A, dtype=float)
    n = A.shape[1]
    v = np.ones(n) / np.sqrt(n)
    lam = 0.0
    for _ in range(POWER_MAX_ITER):
        w = A.T @ (A @ v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v_new = w / norm
        lam_new = float(v_new @ (A.T @ (A @ v_new)))
        if abs(lam_new - lam) <= POWER_TOL * max(lam_new, 1.0):
            return lam_new
        lam, v = lam_new, v_new
    return lam


@dataclass(frozen=True)
class NodeObjective:
    """One agent's data and regularization weights.

    lipschitz is sigma_max(A)^2 (the Huber curvature bound is 1); it is
    computed at construction unless supplied.
    """

    A: np.ndarray
    b: np.ndarray
    delta: float
    beta1: float
    beta2: float
    partition: GroupPartition
    lipschitz: float = field(default=-1.0)

    def __post_init__(self) -> None:
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.size:
            raise ValueError(f"shape mismatch: A {A.shape}, b {b.shape}")
        if A.shape[1] != self.partition.n:
            raise ValueError(
                f"A has {A.shape[1]} columns but the partition covers {self.partition.n}"
            )
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.beta1 < 0 or self.beta2 < 0:
            raise ValueError("negative regularization weight")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        if self.lipschitz < 0:
            object.__setattr__(self, "lipschitz", power_iteration_sq_norm(A))

    @property
    def n(self) -> int:
        return self.A.shape[1]

    def xi_value(self, x: np.ndarray) -> float:
        return self.beta1 * float(np.sum(np.abs(x))) + self.beta2 * group_norm(
            x, self.partition
        )

    def f_value(self, x: np.ndarray) -> float:
        return huber(self.A @ x - self.b, self.delta)

    def f_grad(self, x: np.ndarray) -> np.ndarray:
        y = self.A @ x - self.b
        if not np.isfinite(y).all():
            raise ValueError("non-finite residual in f_grad")
        return self.A.T @ np.clip(y, -self.delta, self.delta)  # the Huber gradient

    def phi(self, x: np.ndarray) -> float:
        return self.xi_value(x) + self.f_value(x)

    def prox(self, v: np.ndarray, t: float) -> np.ndarray:
        return prox_sparse_group(v, t, self.beta1, self.beta2, self.partition)


@dataclass
class NoisyOracle:
    """Stochastic first-order oracle: exact gradient plus zero-mean noise.

    Noise is isotropic Gaussian with per-coordinate variance sigma^2/n so the
    squared-norm second moment equals sigma^2. sigma = 0 returns the exact
    gradient without touching the stream.
    """

    sigma: float
    rng: np.random.Generator

    @classmethod
    def for_node(cls, sigma: float, seed: int, node: int) -> "NoisyOracle":
        if sigma < 0:
            raise ValueError("sigma must be nonnegative")
        return cls(sigma=sigma, rng=np.random.default_rng((seed, node)))


class NetworkObjective(tuple):
    """The N node objectives of a network, evaluated on stacked (N, n) rows.

    NodeObjectives with A of one shape are stacked once: A as (N, m, n), b
    as (N, m), delta, beta1, beta2 and the group counts K as (N, 1) columns,
    and one (N, K, g) group index into the flat rows with their sentinels. On
    equal-size groups the kernels match the per-node methods bit for bit.
    Anything else leaves A None, and each method calls the nodes one by one."""

    A = b = delta = beta1 = beta2 = K = index = None

    def __new__(cls, objectives):
        self = super().__new__(cls, objectives)
        if all(isinstance(o, NodeObjective) for o in self) and len({o.A.shape for o in self}) == 1:
            n, shapes = self[0].n, np.array([o.partition.index.shape for o in self])
            index = np.full((len(self), *shapes.max(axis=0)), n)
            for rows, o, (K, g) in zip(index, self, shapes):
                rows[:K, :g] = o.partition.index
            self.index = index + (n + 1) * np.arange(len(self))[:, None, None]
            self.A, self.b = np.stack([o.A for o in self]), np.stack([o.b for o in self])
            columns = [[o.delta, o.beta1, o.beta2, o.partition.K] for o in self]
            self.delta, self.beta1, self.beta2, self.K = np.array(columns).T[:, :, None]
        return self

    def f_value(self, X: np.ndarray) -> np.ndarray:
        """Row i is f_i(x_i)."""
        if self.A is None:
            return np.array([o.f_value(x) for o, x in zip(self, X)])
        return huber((self.A @ X[:, :, None])[:, :, 0] - self.b, self.delta)

    def f_grad(self, X: np.ndarray) -> np.ndarray:
        """Row i is grad f_i(x_i)."""
        if self.A is None:
            return np.stack([o.f_grad(x) for o, x in zip(self, X)])
        Y = (self.A @ X[:, :, None])[:, :, 0] - self.b
        if not np.isfinite(Y).all():
            raise ValueError("non-finite residual in f_grad")
        C = np.clip(Y, -self.delta, self.delta)  # the Huber gradient
        # on the transposed view, as NodeObjective.f_grad multiplies by A.T
        return (self.A.transpose(0, 2, 1) @ C[:, :, None])[:, :, 0]

    def prox(self, V: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """Row i is prox_{c_i xi_i}(v_i) with c_i = steps[i]."""
        if self.A is None:
            return np.stack([o.prox(v, c) for o, v, c in zip(self, V, steps.tolist())])
        return _sparse_group_prox(V, steps[:, None], self.beta1, self.beta2, self.index)

    def phi(self, X: np.ndarray) -> float:
        """F = sum_i Phi_i(x_i), summed over groups and then over nodes in
        node order, as the per-node values would be."""
        if self.A is None:
            return float(sum(o.phi(x) for o, x in zip(self, X)))
        xi = self.beta1[:, 0] * np.sum(np.abs(X), axis=1)
        xi = xi + self.beta2[:, 0] * _group_norm_sums(X, self.index)
        return float(sum((xi + self.f_value(X)).tolist()))


def network(objectives) -> NetworkObjective:
    """The objectives as one NetworkObjective, built once: one is returned as is."""
    return objectives if isinstance(objectives, NetworkObjective) else NetworkObjective(objectives)


def oracle_grad(obj, noisy, x: np.ndarray) -> np.ndarray:
    """Gradient plus noise for one node and its NoisyOracle, or for a NetworkObjective's
    rows and the per-node oracles, drawing one standard_normal(n) per noisy node."""
    grad = obj.f_grad(x)
    n = grad.shape[-1]
    for row, orc in zip(grad.reshape(-1, n), [noisy] if isinstance(noisy, NoisyOracle) else noisy):
        if orc.sigma != 0.0:
            row += orc.rng.standard_normal(n) * (orc.sigma / np.sqrt(n))
    return grad


def objective_to_text(obj: NodeObjective) -> str:
    """Binary-free text dump: dims, weights, groups (1-based), row-major data."""
    m, n = obj.A.shape
    lines = [
        f"m={m} n={n}",
        f"delta={obj.delta!r}",
        f"beta1={obj.beta1!r}",
        f"beta2={obj.beta2!r}",
        f"K={obj.partition.K}",
    ]
    for g in obj.partition.groups:
        lines.append("group " + " ".join(str(int(k) + 1) for k in g))
    for row in obj.A:
        lines.append(" ".join(repr(float(v)) for v in row))
    lines.append(" ".join(repr(float(v)) for v in obj.b))
    return "\n".join(lines) + "\n"


def objective_from_text(text: str) -> NodeObjective:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    try:
        dims = dict(part.split("=") for part in lines[0].split())
        m, n = int(dims["m"]), int(dims["n"])
        delta = float(lines[1].split("=", 1)[1])
        beta1 = float(lines[2].split("=", 1)[1])
        beta2 = float(lines[3].split("=", 1)[1])
        K = int(lines[4].split("=", 1)[1])
        groups = []
        for k in range(K):
            toks = lines[5 + k].split()
            if toks[0] != "group":
                raise ValueError(f"expected 'group' on line {6 + k}")
            groups.append(np.array([int(t) - 1 for t in toks[1:]], dtype=np.intp))
        rows = lines[5 + K : 5 + K + m]
        A = np.array([[float(v) for v in r.split()] for r in rows])
        b = np.array([float(v) for v in lines[5 + K + m].split()])
    except (KeyError, IndexError, ValueError) as exc:
        raise ValueError(f"malformed objective text: {exc}") from exc
    return NodeObjective(
        A=A, b=b, delta=delta, beta1=beta1, beta2=beta2,
        partition=GroupPartition(tuple(groups)),
    )
