"""Property-test bed for the convergence regime: federated SGD on synthetic
strongly convex quadratics with known constants, plus the aggregation-weight
simplex check."""

from dataclasses import dataclass

import numpy as np

from .aggregation import AggregationConfig, correlation_weights
from .errors import ConfigError, DomainError


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

    def client_value(self, k, w):
        d = w - self.targets[k]
        return 0.5 * float(d @ self.mats[k] @ d)

    def client_grad(self, k, w):
        return self.mats[k] @ (w - self.targets[k])

    def value(self, w) -> float:
        return float(sum(p * self.client_value(k, w)
                         for k, p in enumerate(self.weights)))

    def grad(self, w) -> np.ndarray:
        out = np.zeros(self.dim)
        for k, p in enumerate(self.weights):
            out += p * self.client_grad(k, w)
        return out


def make_problem(n_clients: int, dim: int, seed, heterogeneity: float = 1.0,
                 eig_range=(0.5, 2.0)) -> ConvexProblem:
    """Seeded quadratic problem; optimum and constants in closed form."""
    if dim < 1 or n_clients < 1:
        raise ConfigError("dim and n_clients must be >= 1")
    rng = np.random.default_rng(seed)
    mats = np.empty((n_clients, dim, dim))
    lo, hi = eig_range
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
    rounds: np.ndarray     # recorded round indices
    mean_gap: np.ndarray   # mean optimality gap over replicates
    std_gap: np.ndarray


def run_fedavg_convergence(problem: ConvexProblem, rounds: int, local_steps: int,
                           lr_scale: float, lr_offset: float, noise: float,
                           seed, replicates: int = 1,
                           w0: np.ndarray = None) -> ConvergenceTrace:
    """Federated averaging on the quadratic problem with decaying steps.

    Step size at global step t is lr_scale / (t + lr_offset). Gaussian
    gradient noise of scale `noise` is added per local step.
    """
    if rounds < 1 or local_steps < 1:
        raise ConfigError("rounds and local_steps must be >= 1")
    if w0 is None:
        w0 = np.zeros(problem.dim)
    gaps = np.empty((replicates, rounds + 1))
    for rep in range(replicates):
        rng = np.random.default_rng((seed, rep))
        w = w0.copy()
        gaps[rep, 0] = problem.value(w) - problem.f_star
        t = 0
        for r in range(rounds):
            locals_ = np.tile(w, (problem.n_clients, 1))
            for _ in range(local_steps):
                lr = lr_scale / (t + lr_offset)
                for k in range(problem.n_clients):
                    g = problem.client_grad(k, locals_[k])
                    if noise > 0:
                        g = g + noise * rng.standard_normal(problem.dim)
                    locals_[k] -= lr * g
                t += 1
            w = np.einsum("k,ki->i", problem.weights, locals_)
            gap = problem.value(w) - problem.f_star
            if gap > 1e6:
                raise DomainError(f"divergence at round {r}: gap {gap:.3g}")
            gaps[rep, r + 1] = gap
    rounds_axis = np.arange(rounds + 1)
    return ConvergenceTrace(rounds_axis, gaps.mean(axis=0), gaps.std(axis=0))


def verify_simplex(n_samples: int, seed, eps=AggregationConfig.clamp_epsilon, tol=1e-12):
    """Check that every personalized mixing row's weights sum to exactly 1.

    Draws random clamped (n, n) correlation matrices (n in 2..8) and gammas,
    takes W from `aggregation.correlation_weights`, and checks
    gamma * W.sum(1) + (1 - gamma) == 1 row by row. Returns (violations,
    worst_deviation), counting a matrix with any row off by tol or more once.
    """
    rng = np.random.default_rng(seed)
    violations = 0
    worst = 0.0
    for _ in range(n_samples):
        n = int(rng.integers(2, 9))
        entries = np.maximum(rng.uniform(-1.0, 5.0, size=(n, n)), eps)
        gamma = float(rng.uniform(0.0, 1.0))
        totals = gamma * correlation_weights(entries).sum(axis=1) + (1.0 - gamma)
        dev = float(np.abs(totals - 1.0).max())
        worst = max(worst, dev)
        if dev >= tol:
            violations += 1
    return violations, worst
