"""Reference implementations that tests check the package's kernels against.
The package itself only runs the batch kernels in `fedsim.losses`, `fedsim.nn`
and `fedsim.aggregation`; these are written one vector (or one full row) at a
time so a test can compare the two.
"""

import numpy as np

from fedsim.errors import DomainError, ShapeError
from fedsim.losses import log_softmax


def cross_entropy(logits: np.ndarray, label_onehot: np.ndarray) -> float:
    """Softmax cross-entropy for a single logits vector and one-hot label."""
    logits = np.asarray(logits, dtype=np.float64)
    y = np.asarray(label_onehot, dtype=np.float64)
    if logits.shape != y.shape or logits.ndim != 1:
        raise ShapeError("logits and label must be 1-D vectors of equal length")
    if logits.size < 2:
        raise DomainError("need at least 2 classes")
    if not np.all((y == 0) | (y == 1)) or int(y.sum()) != 1:
        raise DomainError("label must be one-hot with exactly one hot index")
    return float(-(y * log_softmax(logits)).sum())


def fv_cos_loss(f_p: np.ndarray, f_g: np.ndarray) -> float:
    """Alignment loss |cos(f_p, f_g) - 1|; 0 iff positively collinear."""
    loss, _, _ = fv_cos_grad(f_p, f_g)
    return loss


def fv_cos_grad(f_p: np.ndarray, f_g: np.ndarray):
    """Alignment loss with gradients w.r.t. both vectors."""
    f_p = np.asarray(f_p, dtype=np.float64)
    f_g = np.asarray(f_g, dtype=np.float64)
    if f_p.shape != f_g.shape or f_p.ndim != 1:
        raise ShapeError("vectors must be 1-D and of equal length")
    np_norm = np.linalg.norm(f_p)
    ng_norm = np.linalg.norm(f_g)
    if np_norm == 0.0 or ng_norm == 0.0:
        raise DomainError("zero-norm embedding in cosine alignment loss")
    cos = float(f_p @ f_g / (np_norm * ng_norm))
    loss = abs(cos - 1.0)
    sign = np.sign(cos - 1.0)
    dcos_dp = f_g / (np_norm * ng_norm) - cos * f_p / (np_norm * np_norm)
    dcos_dg = f_p / (np_norm * ng_norm) - cos * f_g / (ng_norm * ng_norm)
    return loss, sign * dcos_dp, sign * dcos_dg


def finite_difference_grad(loss_fn, params: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar loss over a flat parameter vector."""
    params = np.asarray(params, dtype=np.float64)
    grad = np.zeros_like(params)
    for i in range(params.size):
        p_hi = params.copy()
        p_hi[i] += step
        p_lo = params.copy()
        p_lo[i] -= step
        grad[i] = (loss_fn(p_hi) - loss_fn(p_lo)) / (2.0 * step)
    return grad


def correlation_rows(embs: np.ndarray) -> np.ndarray:
    """R[i, j] = sum_t cos(embs[i, t], embs[j, t]) for (N, T, dim) embeddings, every
    ordered pair computed on its own: row i against all N clients."""
    norms = np.linalg.norm(embs, axis=-1)
    if np.any(norms == 0):
        raise DomainError("zero-norm probe embedding")
    return np.stack([((e * embs).sum(-1) / (n * norms)).sum(-1)
                     for e, n in zip(embs, norms)])
