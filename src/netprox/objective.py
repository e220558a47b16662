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

from .errors import check_positive

__all__ = [
    "GroupPartition",
    "NetworkObjective",
    "NodeObjective",
    "NoisyOracle",
    "adds_noise",
    "huber",
    "prox_sparse_group",
    "oracle_grad",
    "group_norm",
    "network",
    "power_iteration_sq_norm",
    "row_dot",
    "objective_to_text",
]

POWER_TOL = 1e-10  # power iteration's relative tolerance on sigma_max(A)^2
POWER_MAX_ITER = 50000  # power iteration's cap on steps
NOISE_BLOCK = 2048  # noise values a NoisyOracle row draws per generator call, in whole draws of n


@dataclass(frozen=True)
class GroupPartition:
    """Disjoint index groups covering {0, ..., n-1}. index holds them as the
    rows of a (K, g) array, short groups padded with n, the entry of the one
    zero sentinel after a row's n flat entries; owners (n,) holds each
    coordinate's group number."""

    groups: tuple[np.ndarray, ...]
    index: np.ndarray = field(init=False, repr=False, compare=False)
    owners: np.ndarray = field(init=False, repr=False, compare=False)

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
        owners = np.empty(n, dtype=np.intp)
        for k, (row, g) in enumerate(zip(index, cleaned)):
            row[: g.size], owners[g] = g, k
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "owners", owners)

    @property
    def n(self) -> int:
        return sum(g.size for g in self.groups)

    @property
    def K(self) -> int:
        return len(self.groups)


# a @ b for each pair of rows (last axis), batched: the dot product a per-row
# loop takes (one BLAS dot per row), not a pairwise sum, so the bits match it
row_dot = np.vecdot


def _group_norm_sums(X: np.ndarray, index: np.ndarray) -> np.ndarray:
    """||x_i||_{G_i} for every row of X (..., n), the group norms summed in
    group order (an accumulate, so sequential whatever the shape); index points
    into X's flat entries followed by one zero sentinel entry, which every short
    group's padding points at, and its shape is that of the result plus (K, g).
    An index without padding holds each entry once (index.size == X.size), so it
    gathers from X's flat entries themselves, without the sentinel's copy."""
    flat = X.ravel()
    E = (flat if index.size == X.size else np.concatenate((flat, [0.0])))[index]
    return np.add.accumulate(np.sqrt(row_dot(E, E)), axis=-1)[..., -1]


def _sparse_group_prox(V, t, beta1, beta2, index, owners) -> np.ndarray:
    """prox_sparse_group on each row of V (or on V, one row); t and the weights are
    scalars or columns. The soft threshold is written into one contiguous flat
    buffer whose last entry is the zero sentinel of index's padding; owners sends
    each coordinate to its group's entry in the flattened group scales."""
    flat = np.empty(V.size + 1)
    flat[-1] = 0.0
    eta = flat[:-1].reshape(V.shape)
    np.abs(V, out=eta)
    eta -= t * beta1
    np.maximum(eta, 0.0, out=eta)
    eta *= np.sign(V)  # the sign product, not copysign: sign(-0.0) * 0.0 is +0.0
    E = flat[index]
    norms = np.sqrt(row_dot(E, E))
    thresh = t * beta2
    keep = norms > thresh  # the other groups scale by 0.0, with no division by their norm
    scale = np.zeros(norms.shape)
    np.divide(thresh, norms, out=scale, where=keep)
    np.subtract(1.0, scale, out=scale, where=keep)
    eta *= scale.ravel()[owners]
    return eta


def group_norm(x: np.ndarray, partition: GroupPartition) -> float:
    """Sum over groups of the Euclidean norm of the group's coordinates."""
    return float(_group_norm_sums(np.asarray(x, dtype=float)[None], partition.index[None])[0])


def huber(y: np.ndarray, delta):
    """Huber loss h_delta(y) = sum_j 0.5 y_j^2 on |y_j| <= delta, else delta |y_j| - delta^2/2.

    Its gradient clamps y to [-delta, delta] coordinatewise and is 1-Lipschitz.
    Rows y (N, m) with a positive delta column (N, 1) give one value per row.
    """
    check_positive(delta=delta)
    y = np.asarray(y, dtype=float)
    value = _huber_rows(y, delta, 0.5 * delta * delta)
    return float(value) if y.ndim == 1 else value


def _huber_rows(y: np.ndarray, delta, half_delta_sq) -> np.ndarray:
    """huber's values on the last axis of y, without its guards on delta; the
    non-finite check stays."""
    if not np.logical_and.reduce(np.isfinite(y), axis=None):
        raise ValueError("non-finite input to huber")
    a = np.abs(y)
    q = 0.5 * y
    q *= y
    l = delta * a
    l -= half_delta_sq
    return np.add.reduce(np.where(a <= delta, q, l), axis=-1)


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
    check_positive(t=t, beta1=beta1, beta2=beta2)
    xbar = np.asarray(xbar, dtype=float)
    return _sparse_group_prox(xbar, t, beta1, beta2, partition.index, partition.owners)


def power_iteration_sq_norm(A: np.ndarray):
    """sigma_max(A_i)^2 of every slice of a stack A (N, m, n) by power iteration on
    A_i^T A_i from ones(n)/sqrt(n); a 2-D A is the N = 1 case and gives a float.

    The slices step together in batched matmuls and row_dot, the products a loop
    over one matrix takes, so each value matches that loop bit for bit. A slice
    leaves the batch once its estimate moves by at most POWER_TOL relative (or
    A_i^T A_i v vanishes: 0), and only then are the live slices gathered again;
    after POWER_MAX_ITER steps a live slice keeps its last estimate.

    A nonzero A_i whose A_i^T A_i maps the start to 0 (ones(n) when every row
    of A_i sums to zero) would read 0: such a slice starts again from the
    unit vector of A_i's largest column, whose image is not 0."""
    A = np.asarray(A, dtype=float)
    S = A if A.ndim == 3 else A[None]
    N, _, n = S.shape
    out = _power_iteration(S, np.ones((N, n)) / np.sqrt(n))
    redo = np.flatnonzero((out == 0.0) & S.any(axis=(1, 2)))
    if redo.size:
        start = np.zeros((redo.size, n))
        start[np.arange(redo.size), np.argmax(np.sum(S[redo] ** 2, axis=1), axis=1)] = 1.0
        out[redo] = _power_iteration(S[redo], start)
    return out if A.ndim == 3 else float(out[0])


def _power_iteration(S: np.ndarray, V: np.ndarray) -> np.ndarray:
    """power_iteration_sq_norm's batched loop over the stack S from the start rows V."""

    def gram(V):  # A_i^T (A_i v_i), the transposed view as the 2-D A.T @ (A @ v)
        return (ST @ (S @ V[:, :, None]))[:, :, 0]

    N, ST = len(S), S.transpose(0, 2, 1)
    out, live, lam = np.zeros(N), np.arange(N), np.zeros(N)
    W = gram(V)
    for _ in range(POWER_MAX_ITER):
        if not live.size:
            break
        norm = np.sqrt(row_dot(W, W))
        zero = norm == 0.0
        V = W / np.where(zero, 1.0, norm)[:, None]
        W = gram(V)  # the estimate's product, and the next step's
        lam_new = row_dot(V, W)
        done = zero | (np.abs(lam_new - lam) <= POWER_TOL * np.maximum(lam_new, 1.0))
        lam = np.where(zero, 0.0, lam_new)
        if done.any():
            out[live[done]] = lam[done]
            keep = ~done
            S, live, W, lam = S[keep], live[keep], W[keep], lam[keep]
            ST = S.transpose(0, 2, 1)
    out[live] = lam
    return out


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
        check_positive(delta=self.delta, beta1=self.beta1, beta2=self.beta2)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        if self.lipschitz == -1.0:  # the default: compute it
            object.__setattr__(self, "lipschitz", power_iteration_sq_norm(A))
        check_positive(lipschitz=self.lipschitz)  # A = 0 has L = 0

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


class NoisyOracle:
    """Stochastic first-order oracle of some nodes, one row each: exact gradient
    plus zero-mean noise.

    Noise is isotropic Gaussian with per-coordinate variance sigma^2/n so the
    squared-norm second moment equals sigma^2. Every row has the one sigma; row r
    is node nodes[r], with its own stream default_rng((seed, nodes[r])). With
    sigma = 0 the oracle adds nothing and never touches a stream.

    The draws come a block at a time into one (R, B, n) buffer, R the rows and
    B = max(1, NOISE_BLOCK // n): each row's generator fills its (B, n) slice
    with one standard_normal call, and the buffer is scaled in place by
    sigma/sqrt(n). Draw j of a row is then the bits that its j-th
    standard_normal(n) call times that scalar would give, and a round adds draw j
    of every row with one ufunc. The generators run less than one block ahead
    of the draws used; a run's oracle is its own, so no state outlives it.
    """

    def __init__(self, sigma: float, seed: int, nodes) -> None:
        check_positive(sigma=sigma)
        self.sigma = float(sigma)
        self.rngs = tuple(np.random.default_rng((seed, i)) for i in nodes)
        self._block = np.empty((len(self.rngs), 0, 0))
        self._next = 0

    @classmethod
    def for_node(cls, sigma: float, seed: int, node: int) -> "NoisyOracle":
        return cls(sigma, seed, (node,))

    def perturb(self, G: np.ndarray) -> None:
        """Add every row's next draw to its row of G (R, n), in place."""
        if not self.sigma:
            return
        if G.shape[0] != self._block.shape[0]:  # the block holds one row per stream
            raise ValueError(f"{len(G)} gradient rows for an oracle of {len(self.rngs)}")
        if self._next == self._block.shape[1]:  # the block is used up: draw the next one
            n = G.shape[-1]
            if self._block.shape[2] != n:
                self._block = np.empty((len(self.rngs), max(1, NOISE_BLOCK // n), n))
            for rng, rows in zip(self.rngs, self._block):
                rng.standard_normal(out=rows)
            self._block *= self.sigma / np.sqrt(n)
            self._next = 0
        G += self._block[:, self._next]
        self._next += 1


def adds_noise(noisy) -> bool:
    """Whether oracle_grad with noisy, a NoisyOracle or a sequence of them, perturbs a row."""
    return any(o.sigma > 0 for o in ((noisy,) if isinstance(noisy, NoisyOracle) else noisy))


class NetworkObjective(tuple):
    """The N node objectives of a network, evaluated on stacked (N, n) rows.

    NodeObjectives with A of one shape are stacked once: A as (N, m, n), b
    as (N, m), delta, beta1 and beta2 as (N, 1) columns, one (N, K, g) group
    index (K the most groups of a node, g the largest group) into the N * n
    flat entries of the rows, whose short and missing groups point at the one
    zero sentinel after them (entry N * n), and the (N, n) owners of the
    coordinates among the N * K group slots. On equal-size groups the kernels match the per-node methods bit for
    bit. Anything else leaves A None, and each method calls the nodes one by one."""

    A = b = delta = beta1 = beta2 = index = owners = None

    def __new__(cls, objectives):
        self = super().__new__(cls, objectives)
        dims = sorted({o.n for o in self if hasattr(o, "n")})  # a ProxOnlyObjective has none
        if len(dims) > 1:
            raise ValueError(f"objective dimensions differ: {dims}")
        if all(isinstance(o, NodeObjective) for o in self) and len({o.A.shape for o in self}) == 1:
            n, shapes = self[0].n, np.array([o.partition.index.shape for o in self])
            index = np.full((len(self), *shapes.max(axis=0)), n)
            for rows, o, (K, g) in zip(index, self, shapes):
                rows[:K, :g] = o.partition.index
            flat = index + n * np.arange(len(self))[:, None, None]  # row i starts at n * i
            self.index = np.where(index == n, n * len(self), flat)
            owners = np.stack([o.partition.owners for o in self])
            self.owners = owners + index.shape[1] * np.arange(len(self))[:, None]
            self.A, self.b = np.stack([o.A for o in self]), np.stack([o.b for o in self])
            columns = [[o.delta, o.beta1, o.beta2] for o in self]
            self.delta, self.beta1, self.beta2 = np.array(columns).T[:, :, None]
            self._half_delta_sq = 0.5 * self.delta * self.delta
            self._stack_indices = {}
        return self

    def _stack_index(self, S: int) -> np.ndarray:
        """The group index of a stack (S, N, n), whose slices lie one after
        another in its flat entries, the padding at the sentinel after them;
        built once per S."""
        if S not in self._stack_indices:
            step = len(self) * self[0].n  # also the sentinel of one slice
            offsets = self.index + step * np.arange(S)[:, None, None, None]
            self._stack_indices[S] = np.where(self.index == step, S * step, offsets)
        return self._stack_indices[S]

    def f_value(self, X: np.ndarray) -> np.ndarray:
        """Row i is f_i(x_i)."""
        if self.A is None:
            return np.array([o.f_value(x) for o, x in zip(self, X)])
        Y = (self.A @ X[..., None])[..., 0]
        Y -= self.b
        return _huber_rows(Y, self.delta, self._half_delta_sq)

    def f_grad(self, X: np.ndarray) -> np.ndarray:
        """Row i is grad f_i(x_i)."""
        if self.A is None:
            return np.stack([o.f_grad(x) for o, x in zip(self, X)])
        Y = (self.A @ X[:, :, None])[:, :, 0]
        Y -= self.b
        if not np.logical_and.reduce(np.isfinite(Y), axis=None):
            raise ValueError("non-finite residual in f_grad")
        # the Huber gradient: the clip as its two ufuncs, without np.clip's wrapper
        C = np.minimum(np.maximum(Y, -self.delta, out=Y), self.delta, out=Y)
        # on the transposed view, as NodeObjective.f_grad multiplies by A.T
        return (self.A.transpose(0, 2, 1) @ C[:, :, None])[:, :, 0]

    def prox(self, V: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """Row i is prox_{c_i xi_i}(v_i) with c_i = steps[i]."""
        if self.A is None:
            return np.stack([o.prox(v, c) for o, v, c in zip(self, V, steps.tolist())])
        return _sparse_group_prox(V, steps[:, None], self.beta1, self.beta2, self.index, self.owners)

    def phi(self, X: np.ndarray):
        """F = sum_i Phi_i(x_i), summed over groups and then over nodes in
        node order, as the per-node values would be. A stack X (S, N, n)
        gives its S values in one pass, as a list, each the value of its slice."""
        S = X if X.ndim == 3 else X[None]
        if self.A is None:
            Fs = [float(sum(o.phi(x) for o, x in zip(self, Xs))) for Xs in S]
        else:
            xi = self.beta1[:, 0] * np.add.reduce(np.abs(S), axis=-1)
            xi = xi + self.beta2[:, 0] * _group_norm_sums(S, self._stack_index(len(S)))
            Fs = list(map(sum, (xi + self.f_value(S)).tolist()))  # Python floats
        return Fs if X.ndim == 3 else Fs[0]


def network(objectives) -> NetworkObjective:
    """The objectives as one NetworkObjective, built once: one is returned as is."""
    return objectives if isinstance(objectives, NetworkObjective) else NetworkObjective(objectives)


def oracle_grad(obj, noisy, x: np.ndarray) -> np.ndarray:
    """Gradient plus noise: noisy is a NoisyOracle with one row per row of x (a
    single x is one row), or a sequence of one-row NoisyOracles, one per row."""
    grad = obj.f_grad(x)
    if isinstance(noisy, NoisyOracle):
        noisy.perturb(grad if grad.ndim == 2 else grad[None])
    else:
        for orc, row in zip(noisy, grad):
            orc.perturb(row[None])
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
