"""Ground-truth producers: centralized solves, a certified brute-force prox
oracle, and subgradient-norm bounds.

The brute-force prox never touches the closed-form shrinkage: it maximizes
the Fenchel dual of the prox subproblem over a box (the l1 part) and one
l2 ball per group, and certifies the result with the duality gap. Since the
prox objective is (1/t)-strongly convex, a gap of g pins the iterate within
sqrt(2 t g) of the true prox.
"""

from __future__ import annotations

import math
import os
import tempfile
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import check_positive
from .objective import (
    GroupPartition,
    _sparse_group_prox,
    group_norm,
    network,
    power_iteration_sq_norm,
    row_dot,
)

__all__ = [
    "ReferenceSolution",
    "SOLVER_REVISION",
    "cache_dir",
    "compute_kappas",
    "dual_group_prox",
    "fista_solve",
    "load_reference",
    "prox_bruteforce",
    "save_reference",
]

DUAL_PROX_MAX_ITER = 200000  # sweeps of the dual prox ascent before it gives up
SOLVE_MAX_ITER = 400000  # steps of a reference solve before it gives up
STALL_WINDOW = 5000  # steps a reference solve may go without beating its best residual
# Bumped whenever a change moves the solves' iterates, even in the last bits: cache
# keys carry it, so an entry an earlier solver wrote is a miss.
SOLVER_REVISION = 2


@dataclass(frozen=True)
class ReferenceSolution:
    """Certified minimizer of the summed objective.

    certificate is the fixed-point residual norm of the solve that produced x_star:
    the prox-gradient mapping for the central path; for the product-space path the
    splitting residual |X_A - mu|_F times max_i L_i, the scale of a gradient mapping
    at step 1/max_i L_i. F_star is F at x_star on every node, and kappas bound
    subgradient norms at x_star; both are computed from x_star, never stored.
    """

    x_star: np.ndarray
    F_star: float
    certificate: float
    kappas: tuple[float, ...]


def _project_groups(v: np.ndarray, radius: float, partition: GroupPartition) -> np.ndarray:
    out = v.copy()
    for g in partition.groups:
        nrm = float(np.linalg.norm(out[g]))
        if nrm > radius:
            out[g] *= 0.0 if radius == 0 else radius / nrm
    return out


def dual_group_prox(
    xbar: np.ndarray,
    t: float,
    beta1: float,
    group_terms,
    tol: float = 1e-13,
):
    """Certified prox of beta1|y|_1 + sum_p beta2_p |y|_{G_p} at xbar.

    group_terms is a sequence of (beta2, partition) pairs, so the same
    routine serves the single-partition oracle and the summed penalty that
    appears when several nodes carry different groupings. Maximizes the
    concave dual

        D(u, w_1..w_P) = <z, xbar> - (t/2)|z|^2,   z = u + sum_p w_p,

    over |u|_inf <= beta1 and per-group balls |w_p,g| <= beta2_p. Each block
    maximization is exact (a clip for the box, a ball scaling per group), so
    the sweep is plain cyclic ascent; the duality gap at the feasible dual
    point certifies termination. Returns (y, gap) with y = xbar - t z.
    """
    check_positive(t=t)
    xbar = np.asarray(xbar, dtype=float)
    terms = [(float(b2), part) for b2, part in group_terms]
    P = len(terms)
    target = xbar / t
    u = np.zeros_like(xbar)
    ws = [np.zeros_like(xbar) for _ in range(P)]

    def primal_value(y):
        val = beta1 * float(np.sum(np.abs(y))) + float(y @ y) / (2 * t) - float(y @ xbar) / t
        for b2, part in terms:
            val += b2 * group_norm(y, part)
        return val + float(xbar @ xbar) / (2 * t)

    gap = np.inf
    for _ in range(DUAL_PROX_MAX_ITER):
        rest = sum(ws) if P else np.zeros_like(xbar)
        u = np.clip(target - rest, -beta1, beta1)
        for p, (b2, part) in enumerate(terms):
            others = u + rest - ws[p]
            ws[p] = _project_groups(target - others, b2, part)
            rest = sum(ws)
        z = u + rest if P else u
        d = float(z @ xbar) - (t / 2.0) * float(z @ z)
        y = xbar - t * z
        gap = primal_value(y) - d
        if gap <= tol:
            return y, gap
    raise RuntimeError(f"dual prox ascent stalled with gap {gap:.3e} > tol {tol:.1e}")


def prox_bruteforce(
    xbar: np.ndarray,
    t: float,
    beta1: float,
    beta2: float,
    partition: GroupPartition,
    tol: float = 1e-13,
) -> np.ndarray:
    """Independent prox oracle for the sparse-group penalty; accurate to
    sqrt(2 t tol) in the iterate."""
    y, _ = dual_group_prox(xbar, t, beta1, [(beta2, partition)], tol=tol)
    return y


def _same_partition(p: GroupPartition, q: GroupPartition) -> bool:
    return len(p.groups) == len(q.groups) and all(
        np.array_equal(a, b) for a, b in zip(p.groups, q.groups)
    )


def _one_partition(net) -> bool:
    """Whether every node has node 0's partition: the same object (generated
    case-1 nodes share one), tested first, or equal groups."""
    p = net[0].partition
    return all(o.partition is p or _same_partition(p, o.partition) for o in net)


def _central_solve(net, tol):
    n, groups = net[0].n, (net[0].partition.index, net[0].partition.owners)
    beta1_tot = float(sum(o.beta1 for o in net))
    beta2_tot = float(sum(o.beta2 for o in net))
    # the summed gradient as one product over every node's rows, stacked; the Huber
    # curvature is at most 1, so |Af|^2 bounds its Hessian whatever each delta is
    Af, bf = np.vstack([o.A for o in net]), np.concatenate([o.b for o in net])
    d = np.concatenate([np.full(len(o.b), o.delta) for o in net])
    step, lo, AfT = 1.0 / power_iteration_sq_norm(Af), -d, Af.T
    check_positive(t=step, beta1=beta1_tot, beta2=beta2_tot)  # once: fixed for the solve

    def grad_sum(x):  # the clip as its two ufuncs, without np.clip's wrapper
        return AfT @ np.minimum(np.maximum(Af @ x - bf, lo), d)

    def prox_step(x):  # prox_sparse_group at x - step grad, its checks made above
        return _sparse_group_prox(x - step * grad_sum(x), step, beta1_tot, beta2_tot, *groups)

    def gm_at(x):
        return float(np.linalg.norm(x - prox_step(x))) / step

    x = np.zeros(n)
    y = x.copy()
    theta = 1.0
    best, best_it = np.inf, 0
    for it in range(SOLVE_MAX_ITER):
        z = prox_step(y)
        dz = z - x
        if float(np.vdot(y - z, dz)) > 0:
            theta = 1.0
        theta_new = (1.0 + math.sqrt(1.0 + 4.0 * theta**2)) / 2.0
        y = z + ((theta - 1.0) / theta_new) * dz
        theta = theta_new
        x = z
        if it % 10 == 0:
            cert = gm_at(x)
            if cert <= tol:
                return x, cert
            if cert < best:
                best, best_it = cert, it
            elif it - best_it >= STALL_WINDOW:
                raise _stalled("central solve", "gradient mapping", best, tol)
    cert = gm_at(x)
    if cert <= tol:
        return x, cert
    raise RuntimeError(
        f"central solve stopped at gradient mapping {cert:.3e} > tol {tol:.1e}"
    )


def _stalled(solve: str, residual: str, floor: float, tol: float) -> RuntimeError:
    return RuntimeError(
        f"{solve} stalled: its {residual} has stayed at or above its floor {floor:.3e}"
        f" (> tol {tol:.1e}) for {STALL_WINDOW} steps"
    )


PRODUCT_STEP = 1.9  # the product-space splitting's per-node step, in units of 1/L_i


def _product_solve(net, tol):
    # Davis-Yin splitting on the product space in the metric diag(L_i), where grad F is
    # 1-cocoercive, so node steps PRODUCT_STEP/L_i < 2/L_i converge: per-node gradient and
    # prox steps, the L-weighted consensus projection, the residual scaled by max_i L_i.
    N, n = len(net), net[0].n
    L = np.array([o.lipschitz for o in net])
    L[L == 0] = L.max()  # a constant f_i (A_i = 0) is weighted and stepped as the stiffest
    steps, weights = PRODUCT_STEP / L, L / L.sum()
    Z = np.zeros((N, n))
    cert, best, best_it = np.inf, np.inf, 0
    for it in range(SOLVE_MAX_ITER):
        mu = weights @ Z
        X_A = net.prox(2.0 * mu - Z - steps[:, None] * net.f_grad(np.tile(mu, (N, 1))), steps)
        Z += X_A - mu
        cert = float(np.linalg.norm(X_A - mu) * L.max())
        if cert <= tol:
            return mu, cert
        if cert < best:
            best, best_it = cert, it
        elif it - best_it >= STALL_WINDOW:
            raise _stalled("product-space solve", "splitting residual", best, tol)
    raise RuntimeError(
        f"product-space solve stopped at splitting residual {cert:.3e} > tol {tol:.1e}"
    )


def fista_solve(objectives, tol: float = 1e-12, method: str | None = None) -> ReferenceSolution:
    """Minimize sum_i Phi_i(x) from x = 0 to a certified residual.

    When every node shares one partition the penalty sums into a single
    sparse-group term with a closed-form prox, so plain accelerated proximal
    gradient (with gradient-based adaptive restart) applies. Otherwise the
    prox of the summed penalty has no closed form and the solve runs on the
    product space: Davis-Yin splitting of the consensus constraint from the
    per-node penalties in the metric diag(L_i), node i stepping by PRODUCT_STEP/L_i.
    method forces "central" (ValueError unless every node has node 0's
    partition) or "product"; the default picks by the partitions.

    The central gradient is one BLAS product over all nodes' rows stacked,
    sum_i A_i^T clip(A_i x - b_i), with no per-node copy of x.

    Raises RuntimeError naming the residual's floor once the residual has gone
    STALL_WINDOW steps without beating its best (a tol below the floor double
    precision allows), and with the achieved residual after SOLVE_MAX_ITER steps.
    """
    net = network(objectives)
    shared = _one_partition(net)
    if method is None:
        method = "central" if shared else "product"
    if method == "central":
        if not shared:  # its prox would sum every penalty on node 0's groups
            raise ValueError("the central solve needs every node on node 0's partition")
        x_star, cert = _central_solve(net, tol)
    elif method == "product":
        x_star, cert = _product_solve(net, tol)
    else:
        raise ValueError(f"unknown method {method!r}")
    return _solution(net, x_star, cert)


def _solution(net, x_star, certificate) -> ReferenceSolution:
    """The solution at x_star, with F_star and the kappas computed from it."""
    return ReferenceSolution(
        x_star=x_star,
        F_star=net.phi(np.tile(x_star, (len(net), 1))),
        certificate=certificate,
        kappas=compute_kappas(net, x_star),
    )


def compute_kappas(objectives, x_star) -> tuple[float, ...]:
    """Conservative per-node bounds on subgradient norms at the solution:
    |grad f_i(x*)| plus beta1 sqrt(n) for the l1 part plus beta2 sqrt(K)
    for the K disjoint group terms."""
    net = network(objectives)
    grads = net.f_grad(np.tile(x_star, (len(net), 1)))
    beta1, beta2, K = np.array([(o.beta1, o.beta2, o.partition.K) for o in net]).T
    kappas = np.sqrt(row_dot(grads, grads)) + beta1 * np.sqrt(grads.shape[1])
    return tuple((kappas + beta2 * np.sqrt(K)).tolist())


def cache_dir() -> Path:
    env = os.environ.get("NETPROX_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "netprox"


def save_reference(key: str, sol: ReferenceSolution) -> Path:
    """Persist x_star and its certificate under cache_dir()/<key>.npz. The
    file is written next to its final name and then renamed into place, so
    a reader never sees a partial file."""
    path = cache_dir() / f"{key}.npz"
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{key}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, x_star=sol.x_star, certificate=np.array(sol.certificate))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def load_reference(key: str, objectives) -> ReferenceSolution | None:
    """The cached solution under key for these objectives, F_star and the
    kappas recomputed from x_star as fista_solve computes them. None when
    there is no entry, the file cannot be read back, or its x_star is not a
    finite point of the objectives' space."""
    path = cache_dir() / f"{key}.npz"
    net = network(objectives)
    try:
        with np.load(path, allow_pickle=False) as data:
            x_star, certificate = data["x_star"].copy(), float(data["certificate"])
    except (OSError, EOFError, KeyError, ValueError, TypeError, zipfile.BadZipFile):
        return None
    if x_star.shape != (net[0].n,) or not np.isfinite(x_star).all():
        return None
    return _solution(net, x_star, certificate)
