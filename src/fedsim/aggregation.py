"""Aggregation as one mixing rule over the stacked uploads P: dispatch row n is
gamma * sum_u W[n,u] * P[u] + (1 - gamma) * P[n]. Personalized mixing takes W
from probe-set correlations, W[n,u] = R[n,u] / sum_{k!=n} R[n,k] with a zero
diagonal. FedAvg is one row of weights with gamma = 1, sent to every client."""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .nn import GROUP_ROWS, MLP, forward_batch


@dataclass(frozen=True)
class AggregationConfig:
    gamma: float = 0.5        # mixing coefficient: 0 = keep own model
    clamp_epsilon: float = 1e-6

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise DomainError("gamma must be in [0, 1]")
        if not (np.isfinite(self.clamp_epsilon) and self.clamp_epsilon > 0):
            raise DomainError("clamp_epsilon must be finite and positive")


def correlation_rows(embs: np.ndarray) -> np.ndarray:
    """R[i, j] = sum_t cos(embs[i, t], embs[j, t]) for (N, T, dim) embeddings, built
    by rows: the (N, N, T, dim) product would dominate peak memory at large N. Each
    unordered pair is computed once, row i against clients i..N-1, and mirrored into
    column i; the products commute and both sums read the same layout, so R[j, i]
    computed on its own would be the same number bit for bit."""
    norms = np.linalg.norm(embs, axis=-1)
    if np.any(norms == 0):
        raise DomainError("zero-norm probe embedding")
    entries = np.empty((len(embs), len(embs)))
    for i, (e, n) in enumerate(zip(embs, norms)):
        row = ((e * embs[i:]).sum(-1) / (n * norms[i:])).sum(-1)
        entries[i, i:] = entries[i:, i] = row
    return entries


def correlation_degree(emb_n, emb_u) -> float:
    """Sum over probe items of the cosine similarity of paired embeddings."""
    a, b = np.asarray(emb_n, dtype=np.float64), np.asarray(emb_u, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2:
        raise ShapeError("embedding sequences must be (T, dim) and equal shape")
    return float(correlation_rows(np.stack([a, b]))[0, 1])


def build_correlation_matrix(uploads: MLP, probes: np.ndarray,
                             clamp_epsilon=AggregationConfig.clamp_epsilon) -> np.ndarray:
    """(N, N) correlation degrees of the models in an (N, L) stack on a shared probe
    set, NaN on the diagonal, clamped from below at clamp_epsilon (weights stay > 0)."""
    if uploads.params.ndim != 2 or len(uploads.params) < 2:
        raise DomainError("need at least 2 models")
    entries = np.maximum(correlation_rows(probe_embeddings(uploads, probes)), clamp_epsilon)
    np.fill_diagonal(entries, np.nan)
    return entries


def probe_embeddings(uploads: MLP, probes: np.ndarray) -> np.ndarray:
    """(N, T, out) probe embeddings of the stacked models, GROUP_ROWS per forward."""
    embs = np.empty((len(uploads.params), len(probes), uploads.out_dim))
    for lo in range(0, len(embs), GROUP_ROWS):
        block = MLP(uploads.sizes, uploads.out_act, uploads.params[lo:lo + GROUP_ROWS])
        embs[lo:lo + GROUP_ROWS] = forward_batch(
            block, np.broadcast_to(probes, (len(block.params), *np.shape(probes))))[0]
    return embs


def correlation_weights(entries: np.ndarray) -> np.ndarray:
    """W[n, u] = R[n, u] / sum_{k != n} R[n, k], with a zero diagonal."""
    n = entries.shape[0]
    # Off-diagonal block, not a zero-padded row: padding changes the rounding.
    r_sum = entries[~np.eye(n, dtype=bool)].reshape(n, n - 1).sum(axis=1)
    if not np.all(r_sum > 0):  # also rejects NaN rows
        raise DomainError("correlation row sum must be positive")
    weights = entries / r_sum[:, None]
    np.fill_diagonal(weights, 0.0)
    return weights


def mix(params: np.ndarray, weights: np.ndarray, gamma: float) -> np.ndarray:
    """Rows gamma * sum_u weights[n, u] * params[u] + (1 - gamma) * params[n] of an
    (N, L) stack. The einsum (no BLAS) runs n, u ascending, then l, so each entry
    rounds as in one axpy per u: see test_aggregation.py::TestMixMatchesAxpyBytes.
    A lone column would put u innermost, summed in another order: it is doubled."""
    wide = params if params.shape[1] > 1 else np.repeat(params, 2, axis=1)
    acc = np.einsum("nu,ul->nl", weights, wide)[:, :params.shape[1]]
    acc *= gamma
    acc += (1.0 - gamma) * params[:len(acc)]
    return acc


def _stack_params(params_list) -> np.ndarray:
    """Equal-length parameter vectors as an (N, L) float64 stack; an (N, L) float64
    array is that stack already and is not copied."""
    try:
        params = np.asarray(params_list, dtype=np.float64)
    except ValueError as exc:
        raise ShapeError(f"all parameter vectors must have equal length: {exc}") from exc
    if params.ndim != 2:
        raise ShapeError("all parameter vectors must have equal length")
    return params


def personalized_aggregate(params_list, entries: np.ndarray,
                           cfg: AggregationConfig) -> np.ndarray:
    """(N, L) dispatches by the correlation rule for `entries`: row n is client n's."""
    params = _stack_params(params_list)
    if params.shape[0] != entries.shape[0]:
        raise ShapeError("parameter count does not match correlation matrix")
    return mix(params, correlation_weights(entries), cfg.gamma)


def fedavg_aggregate(params_list, weights) -> np.ndarray:
    """Element-wise weighted mean of parameter vectors: the row every client is sent."""
    params = _stack_params(params_list)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(params),):
        raise ShapeError("one weight per model required")
    if np.any(weights < 0) or abs(float(weights.sum()) - 1.0) > 1e-9:
        raise DomainError("weights must be nonnegative and sum to 1")
    return mix(params, weights[None, :], 1.0)[0]
