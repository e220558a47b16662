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
    "NodeObjective",
    "NoisyOracle",
    "huber_value_grad",
    "prox_sparse_group",
    "oracle_grad",
    "group_norm",
    "power_iteration_sq_norm",
    "objective_to_text",
    "objective_from_text",
]


@dataclass(frozen=True)
class GroupPartition:
    """Disjoint index groups covering {0, ..., n-1}."""

    groups: tuple[np.ndarray, ...]

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

    @property
    def n(self) -> int:
        return sum(g.size for g in self.groups)

    @property
    def K(self) -> int:
        return len(self.groups)


def group_norm(x: np.ndarray, partition: GroupPartition) -> float:
    """Sum over groups of the Euclidean norm of the group's coordinates."""
    return float(sum(np.linalg.norm(x[g]) for g in partition.groups))


def huber_value_grad(y: np.ndarray, delta: float) -> tuple[float, np.ndarray]:
    """Huber loss value and gradient.

    h_delta(y) = sum_j 0.5 y_j^2 on |y_j| <= delta, else delta |y_j| - delta^2/2.
    The gradient clamps y to [-delta, delta] coordinatewise and is 1-Lipschitz.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError("non-finite input to huber_value_grad")
    a = np.abs(y)
    quad = a <= delta
    value = float(np.sum(np.where(quad, 0.5 * y * y, delta * a - 0.5 * delta * delta)))
    grad = np.clip(y, -delta, delta)
    return value, grad


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
    eta = np.sign(xbar) * np.maximum(np.abs(xbar) - t * beta1, 0.0)
    if beta2 == 0.0:
        return eta
    out = np.zeros_like(eta)
    thresh = t * beta2
    for g in partition.groups:
        ng = np.linalg.norm(eta[g])
        if ng > thresh:
            out[g] = eta[g] * (1.0 - thresh / ng)
    return out


def power_iteration_sq_norm(A: np.ndarray, tol: float = 1e-10, max_iter: int = 50000) -> float:
    """sigma_max(A)^2 by power iteration on A^T A with a deterministic start."""
    A = np.asarray(A, dtype=float)
    n = A.shape[1]
    v = np.ones(n) / np.sqrt(n)
    lam = 0.0
    for _ in range(max_iter):
        w = A.T @ (A @ v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v_new = w / norm
        lam_new = float(v_new @ (A.T @ (A @ v_new)))
        if abs(lam_new - lam) <= tol * max(lam_new, 1.0):
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
        value, _ = huber_value_grad(self.A @ x - self.b, self.delta)
        return value

    def f_grad(self, x: np.ndarray) -> np.ndarray:
        _, g = huber_value_grad(self.A @ x - self.b, self.delta)
        return self.A.T @ g

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


def oracle_grad(obj: NodeObjective, noisy: NoisyOracle, x: np.ndarray) -> np.ndarray:
    grad = obj.f_grad(x)
    if noisy.sigma == 0.0:
        return grad
    n = grad.size
    eps = noisy.rng.standard_normal(n) * (noisy.sigma / np.sqrt(n))
    return grad + eps


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
