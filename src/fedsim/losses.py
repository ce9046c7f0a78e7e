"""Batch loss kernels used on clients, with analytic gradients.

Covers the classification cross-entropy, the channel-alignment cosine loss,
the class-center loss and its center update, and the weighted total.
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
        if self.alpha1 < 0 or self.alpha2 < 0 or self.alpha3 < 0:
            raise DomainError("loss weights must be nonnegative")
        if self.alpha1 == 0 and self.alpha2 == 0 and self.alpha3 == 0:
            raise DomainError("at least one loss weight must be positive")


@dataclass
class CenterBank:
    """Per-class embedding centers with their own update rate.

    `centers` is a (K, dim) float64 array; row k is the center of class k.
    It may be given as a mapping {k: vector} with keys exactly 0..K-1.
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
        if centers.ndim != 2:
            raise ShapeError(f"centers must be a (K, dim) array, got shape {centers.shape}")
        if not np.isfinite(centers).all():
            raise DomainError("non-finite class center")
        self.centers = centers


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def cross_entropy_batch(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over a batch; returns (loss, dlogits).

    Labels are trusted to lie in 0..k-1: datasets check them when built.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ShapeError("expect (B, k) logits and (B,) integer labels")
    b = logits.shape[0]
    rows = np.arange(b)
    lsm = log_softmax(logits)
    loss = float(-(lsm[rows, labels].sum() / b))
    dlogits = np.exp(lsm)
    dlogits[rows, labels] -= 1.0
    return loss, dlogits / b


def fv_cos_batch(f_p: np.ndarray, f_g: np.ndarray):
    """Mean alignment loss over a batch with per-sample gradients (already /B)."""
    norm_p = np.linalg.norm(f_p, axis=1)
    norm_g = np.linalg.norm(f_g, axis=1)
    if np.any(norm_p == 0) or np.any(norm_g == 0):
        raise DomainError("zero-norm embedding in cosine alignment loss")
    cos = (f_p * f_g).sum(axis=1) / (norm_p * norm_g)
    loss = float(np.abs(cos - 1.0).mean())
    b = f_p.shape[0]
    sign = np.sign(cos - 1.0)[:, None] / b
    d_p = sign * (f_g / (norm_p * norm_g)[:, None] - (cos / norm_p**2)[:, None] * f_p)
    d_g = sign * (f_p / (norm_p * norm_g)[:, None] - (cos / norm_g**2)[:, None] * f_g)
    return loss, d_p, d_g


def _center_labels(embeddings: np.ndarray, labels, bank: CenterBank) -> np.ndarray:
    """Check a (B, dim) batch against the bank; return its labels as an array."""
    if embeddings.ndim != 2:
        raise ShapeError("embeddings must be a (B, dim) batch")
    labels = np.asarray(labels)
    if labels.shape != (embeddings.shape[0],):
        raise ShapeError("one label per embedding required")
    if embeddings.shape[1] != bank.centers.shape[1]:
        raise ShapeError("center dimension mismatch")
    if labels.size and (labels.dtype.kind not in "iu" or labels.min() < 0
                        or labels.max() >= bank.centers.shape[0]):
        raise DomainError(f"no center for a class in {np.unique(labels)}")
    return labels


def center_loss_grad(embeddings: np.ndarray, labels, bank: CenterBank):
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = _center_labels(embeddings, labels, bank)
    diffs = embeddings - bank.centers[labels]
    loss = 0.5 * float((diffs * diffs).sum())
    return loss, diffs


def update_centers(bank: CenterBank, embeddings: np.ndarray, labels) -> None:
    """Move each touched center toward its class's batch mean by bank.lr.

    Each class sum accumulates its rows in order. That equals numpy's
    per-class `mean(axis=0)` bit for bit when dim >= 2; for dim == 1 numpy
    sums pairwise, so eight or more same-class rows may round differently.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = _center_labels(embeddings, labels, bank)
    sums = np.zeros_like(bank.centers)
    np.add.at(sums, labels, embeddings)
    counts = np.bincount(labels, minlength=bank.centers.shape[0])
    touched = np.flatnonzero(counts)
    c = bank.centers[touched]
    batch_mean = sums[touched] / counts[touched, None]
    bank.centers[touched] = c + bank.lr * (batch_mean - c)


def total_loss(fv: float, ce2: float, cen: float, w: LossWeights) -> float:
    """Weighted sum of the three local-training terms."""
    for name, v in (("fv", fv), ("ce2", ce2), ("cen", cen)):
        if not np.isfinite(v) or v < 0:
            raise DomainError(f"loss term {name} must be finite and nonnegative")
    return w.alpha1 * fv + w.alpha2 * ce2 + w.alpha3 * cen
