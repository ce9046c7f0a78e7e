"""Property-test bed for the convergence regime: federated SGD on synthetic
strongly convex quadratics with known constants, and the dispatch simplex
check. Both mix through the rules the server runs, `aggregation.*_aggregate`."""

from dataclasses import dataclass

import numpy as np

from .aggregation import AggregationConfig, fedavg_aggregate, personalized_aggregate
from .errors import ConfigError, DomainError, whole


@dataclass
class ConvexProblem:
    """Per-client quadratics F_k(w) = 1/2 (w - b_k)^T A_k (w - b_k)."""

    mats: np.ndarray      # (N, dim, dim) symmetric positive definite
    targets: np.ndarray   # (N, dim)
    weights: np.ndarray   # (N,), sums to 1
    smoothness: float     # L: max eigenvalue over clients
    strong_convexity: float  # mu: min eigenvalue over clients
    w_star: np.ndarray
    f_star: float

    @property
    def n_clients(self) -> int:
        return self.mats.shape[0]

    @property
    def dim(self) -> int:
        return self.mats.shape[1]

    @property
    def condition_number(self) -> float:
        return self.smoothness / self.strong_convexity

    def client_grads(self, models):
        """(N, dim) gradients, row k client k's at row k of `models` (or at w)."""
        return (self.mats @ (models - self.targets)[..., None])[..., 0]

    def value(self, w) -> float:
        return float(sum(p * (0.5 * float(d @ a @ d))
                         for p, a, d in zip(self.weights, self.mats, w - self.targets)))


def make_problem(n_clients: int, dim: int, seed, heterogeneity: float = 1.0,
                 eig_range=(0.5, 2.0)) -> ConvexProblem:
    """Seeded quadratic problem; optimum and constants in closed form."""
    n_clients, dim = whole("n_clients", n_clients, 1), whole("dim", dim, 1)
    lo, hi = eig_range
    if not 0 < lo <= hi:
        raise ConfigError(f"eig_range must satisfy 0 < lo <= hi, got {eig_range}")
    rng = np.random.default_rng(seed)
    mats = np.empty((n_clients, dim, dim))
    for k in range(n_clients):
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        eigs = rng.uniform(lo, hi, size=dim)
        mats[k] = (q * eigs) @ q.T
        mats[k] = 0.5 * (mats[k] + mats[k].T)  # kill qr round-off asymmetry
    base = rng.standard_normal(dim)
    targets = base + heterogeneity * rng.standard_normal((n_clients, dim))
    weights = np.full(n_clients, 1.0 / n_clients)

    eigvals = np.concatenate([np.linalg.eigvalsh(m) for m in mats])
    smoothness = float(eigvals.max())
    strong_convexity = float(eigvals.min())
    # weighted normal equations: (sum p_k A_k) w* = sum p_k A_k b_k
    lhs = np.einsum("k,kij->ij", weights, mats)
    rhs = np.einsum("k,kij,kj->i", weights, mats, targets)
    w_star = np.linalg.solve(lhs, rhs)
    problem = ConvexProblem(mats, targets, weights, smoothness, strong_convexity,
                            w_star, 0.0)
    problem.f_star = problem.value(w_star)
    return problem


@dataclass
class ConvergenceTrace:
    mean_gap: np.ndarray   # (rounds + 1,) mean optimality gap over replicates
    std_gap: np.ndarray


def run_fedavg_convergence(problem: ConvexProblem, rounds: int, local_steps: int,
                           lr_scale: float, lr_offset: float, noise: float,
                           seed, replicates: int = 1,
                           w0: np.ndarray = None) -> ConvergenceTrace:
    """Federated averaging of an (N, dim) model stack on the quadratic problem:
    step lr_scale / (t + lr_offset) at global step t, Gaussian gradient noise of
    scale `noise` per local step, and at each round's end every row set to the
    `fedavg_aggregate` of the stack under the problem weights."""
    rounds, local_steps = whole("rounds", rounds, 1), whole("local_steps", local_steps, 1)
    replicates = whole("replicates", replicates, 1)
    if not (lr_offset > 0 and lr_scale >= 0):
        raise ConfigError("need lr_offset > 0 and lr_scale >= 0")
    n, dim = problem.targets.shape
    w0 = np.zeros(dim) if w0 is None else w0
    start = np.tile(w0, (n, 1))
    gaps = np.empty((replicates, rounds + 1))
    gaps[:, 0] = problem.value(w0) - problem.f_star
    for rep in range(replicates):
        rng = np.random.default_rng((seed, rep))
        models = start.copy()
        for r in range(rounds):
            for t in range(r * local_steps, (r + 1) * local_steps):
                grads = problem.client_grads(models)
                if noise > 0:
                    grads += noise * rng.standard_normal((n, dim))
                models -= lr_scale / (t + lr_offset) * grads
            models[:] = fedavg_aggregate(models, problem.weights)
            gap = problem.value(models[0]) - problem.f_star
            if gap > 1e6:
                raise DomainError(f"divergence at round {r}: gap {gap:.3g}")
            gaps[rep, r + 1] = gap
    return ConvergenceTrace(gaps.mean(axis=0), gaps.std(axis=0))


def verify_simplex(n_samples: int, seed, eps=AggregationConfig.clamp_epsilon, tol=1e-12):
    """Check that every personalized dispatch's coefficients sum to exactly 1.

    Draws random clamped (n, n) correlation matrices (n in 2..8) and gammas;
    row n of the personalized dispatches of the identity stack holds dispatch
    n's weight on each upload. Returns (violations, worst_deviation), counting
    a matrix with any row sum off 1 by tol or more once.
    """
    rng = np.random.default_rng(seed)
    violations, worst = 0, 0.0
    for _ in range(n_samples):
        n = int(rng.integers(2, 9))
        entries = np.maximum(rng.uniform(-1.0, 5.0, size=(n, n)), eps)
        gamma = float(rng.uniform(0.0, 1.0))
        rows = personalized_aggregate(np.eye(n), entries, AggregationConfig(gamma))
        dev = float(np.abs(rows.sum(axis=1) - 1.0).max())
        worst = max(worst, dev)
        if dev >= tol:
            violations += 1
    return violations, worst
