"""Batch loss kernels used on clients, with analytic gradients.

Covers the classification cross-entropy, the channel-alignment cosine loss,
the class-center loss and its center update, and the weighted total. Each
kernel also takes a leading group axis: G independent batches (and G center
banks) in one call, one loss per row, each row computed exactly as alone.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError

EPS = 1e-300  # guards log of exact zero only


@dataclass(frozen=True)
class LossWeights:
    """Weights of the alignment, classification, and center terms."""

    alpha1: float
    alpha2: float
    alpha3: float

    def __post_init__(self):
        if not np.isfinite((self.alpha1, self.alpha2, self.alpha3)).all():
            raise DomainError("loss weights must be finite")
        if self.alpha1 < 0 or self.alpha2 < 0 or self.alpha3 < 0:
            raise DomainError("loss weights must be nonnegative")
        if self.alpha1 == 0 and self.alpha2 == 0 and self.alpha3 == 0:
            raise DomainError("at least one loss weight must be positive")


@dataclass
class CenterBank:
    """Per-class embedding centers with their own update rate.

    `centers` is a (K, dim) float64 array; row k is the center of class k.
    It may be given as a mapping {k: vector} with keys exactly 0..K-1. A
    (G, K, dim) array holds the banks of G clients that share one rate.
    """

    centers: np.ndarray
    lr: float

    def __post_init__(self):
        centers = self.centers
        if isinstance(centers, dict):
            if sorted(centers) != list(range(len(centers))):
                raise DomainError(f"center classes must be 0..K-1, got {sorted(centers)}")
            centers = [centers[k] for k in range(len(centers))]
        try:
            centers = np.array(centers, dtype=np.float64)
        except ValueError as exc:
            raise ShapeError(f"centers must share one dimension: {exc}") from exc
        if centers.ndim not in (2, 3):
            raise ShapeError(
                f"centers must be a ([G,] K, dim) array, got shape {centers.shape}")
        if not np.isfinite(centers).all():
            raise DomainError("non-finite class center")
        self.centers = centers


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    return z - np.log(np.add.reduce(np.exp(z), axis=-1, keepdims=True))


def cross_entropy_batch(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over a batch; returns (loss, dlogits).

    (G, B, k) logits and (G, B) labels give a (G,) loss, one per batch.
    Labels are trusted to lie in 0..k-1: datasets check them when built.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim < 2 or labels.shape != logits.shape[:-1]:
        raise ShapeError("expect ([G,] B, k) logits and ([G,] B) integer labels")
    b, k = logits.shape[-2:]
    # each sample's true-class entry in the flat logits, for any group shape
    flat = np.arange(0, labels.size * k, k) + labels.ravel()
    lsm = log_softmax(logits)
    loss = -(np.add.reduce(lsm.ravel().take(flat).reshape(labels.shape), axis=-1) / b)
    dlogits = np.exp(lsm)
    dlogits.ravel()[flat] -= 1.0
    dlogits /= b
    return loss, dlogits


def fv_cos_batch(f_p: np.ndarray, f_g: np.ndarray):
    """Mean alignment loss over a batch with per-sample gradients (already /B)."""
    # the sum `np.linalg.norm` runs for real input, without its dispatch
    norm_p = np.sqrt(np.add.reduce(f_p * f_p, axis=-1))
    norm_g = np.sqrt(np.add.reduce(f_g * f_g, axis=-1))
    if not (norm_p.all() and norm_g.all()):
        raise DomainError("zero-norm embedding in cosine alignment loss")
    norms = norm_p * norm_g
    cos = np.add.reduce(f_p * f_g, axis=-1) / norms
    b = f_p.shape[-2]
    loss = np.add.reduce(np.abs(cos - 1.0), axis=-1) / b
    sign = np.sign(cos - 1.0)[..., None] / b
    d_p = sign * (f_g / norms[..., None] - (cos / norm_p**2)[..., None] * f_p)
    d_g = sign * (f_p / norms[..., None] - (cos / norm_g**2)[..., None] * f_g)
    return loss, d_p, d_g


def _center_rows(embeddings: np.ndarray, labels, bank: CenterBank) -> np.ndarray:
    """Check a ([G,] B, dim) batch against the bank; return, per embedding,
    the row of its class center in the bank's centers viewed as (G*K, dim)."""
    if embeddings.ndim != bank.centers.ndim or \
            embeddings.shape[:-2] != bank.centers.shape[:-2]:
        raise ShapeError("embeddings must be a ([G,] B, dim) batch, G as in the bank")
    labels = np.asarray(labels)
    if labels.shape != embeddings.shape[:-1]:
        raise ShapeError("one label per embedding required")
    k, dim = bank.centers.shape[-2:]
    if embeddings.shape[-1] != dim:
        raise ShapeError("center dimension mismatch")
    if labels.size and (labels.dtype.kind not in "iu" or labels.min() < 0
                        or labels.max() >= k):
        raise DomainError(f"no center for a class in {np.unique(labels)}")
    if labels.ndim == 2:
        labels = labels + k * np.arange(labels.shape[0])[:, None]
    return labels


def center_loss_grad(embeddings: np.ndarray, labels, bank: CenterBank):
    """Center loss 0.5 * sum ||e - c_y||^2 of a batch (one per group row) and
    its gradient with respect to the embeddings."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    rows = _center_rows(embeddings, labels, bank)
    diffs = embeddings - bank.centers.reshape(-1, embeddings.shape[-1])[rows]
    loss = 0.5 * (diffs * diffs).sum(axis=(-2, -1))
    return loss, diffs


def update_centers(bank: CenterBank, embeddings: np.ndarray, labels) -> None:
    """Move each touched center toward its class's batch mean by bank.lr.

    Each class sum accumulates its rows in order from +0.0. That equals
    numpy's per-class `mean(axis=0)` bit for bit when dim >= 2; for dim == 1
    numpy sums pairwise, so eight or more same-class rows may round differently.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    # intp: a label times dim may not fit the labels' own integer type
    rows = _center_rows(embeddings, labels, bank).ravel().astype(np.intp)
    dim = embeddings.shape[-1]
    centers = bank.centers.reshape(-1, dim)
    # entry j of a row goes to bin center_row * dim + j, in sample order
    bins = (rows[:, None] * dim + np.arange(dim)).ravel()
    sums = np.bincount(bins, embeddings.ravel(), centers.size).reshape(centers.shape)
    counts = np.bincount(rows, minlength=centers.shape[0])
    touched = np.flatnonzero(counts)
    c = centers[touched]
    batch_mean = sums[touched] / counts[touched, None]
    # written through the bank's own shape: a reshape may be a copy
    at = np.unravel_index(touched, bank.centers.shape[:-1])
    bank.centers[at] = c + bank.lr * (batch_mean - c)


def total_loss(fv: float, ce2: float, cen: float, w: LossWeights) -> float:
    """Weighted sum of the three local-training terms (per group row, if any)."""
    total = w.alpha1 * fv + w.alpha2 * ce2 + w.alpha3 * cen
    # all terms pass if the least is >= 0 and the sum finite (NaN or 0 * inf fails)
    if not ((np.minimum(np.minimum(fv, ce2), cen) >= 0) & np.isfinite(total)).all():
        for name, v in (("fv", fv), ("ce2", ce2), ("cen", cen)):
            if not (np.isfinite(v) & (v >= 0)).all():
                raise DomainError(f"loss term {name} must be finite and nonnegative")
    return total
