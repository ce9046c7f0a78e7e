"""Loss functions used on clients, with analytic gradients.

Covers the two classification cross-entropies, the channel-alignment cosine
loss, the class-center loss, and the weighted total.
"""

from dataclasses import dataclass, field

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

    centers: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    lr: float = 0.5

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


def center_loss(embeddings: np.ndarray, labels, bank: CenterBank) -> float:
    """Half the summed squared distance of each embedding to its class center."""
    loss, _ = center_loss_grad(embeddings, labels, bank)
    return loss


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
