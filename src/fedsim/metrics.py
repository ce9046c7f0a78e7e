"""Open-set verification scoring: pairwise cosine scores, equal error rate,
and true-acceptance rate at a false-acceptance budget."""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError

IMPOSTOR_PAIR_CAP = 50_000

METRICS_CSV_HEADER = ["client_id", "round", "eer", "tar_at_far01",
                      "n_genuine", "n_impostor"]


@dataclass
class ScoreSet:
    """Similarity scores for same-identity and cross-identity pairs.

    Higher score means more similar.
    """

    genuine: np.ndarray
    impostor: np.ndarray

    def __post_init__(self):
        self.genuine = np.asarray(self.genuine, dtype=np.float64)
        self.impostor = np.asarray(self.impostor, dtype=np.float64)
        if not (np.all(np.isfinite(self.genuine)) and np.all(np.isfinite(self.impostor))):
            raise DomainError("scores must be finite")


@dataclass
class MetricsRecord:
    client_id: int
    round: int
    eer: float
    tar_at_far01: float
    n_genuine: int
    n_impostor: int

    def as_row(self):
        return [self.client_id, self.round, repr(float(self.eer)),
                repr(float(self.tar_at_far01)),
                self.n_genuine, self.n_impostor]


def pair_positions(labels, cap: int = IMPOSTOR_PAIR_CAP, seed: int = 0):
    """Flat positions in the (n, n) similarity matrix of the genuine and the
    impostor pairs `score_pairs` scores, in row-major (i < j) order, with
    impostors beyond `cap` subsampled by `seed`; int32 when n² < 2³¹.

    A fixed test split finds them once and scores every round from them.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ShapeError("expect (n,) labels")
    n = labels.size
    # boolean masks read the upper triangle in row-major (i < j) order
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    same = labels[:, None] == labels[None, :]
    dtype = np.int32 if n * n < 2 ** 31 else np.int64
    genuine = np.flatnonzero(same & upper).astype(dtype)
    impostor = np.flatnonzero(~same & upper).astype(dtype)
    if genuine.size == 0:
        raise DomainError("no genuine pairs: need an identity with >= 2 samples")
    if impostor.size == 0:
        raise DomainError("no impostor pairs: need >= 2 identities")
    if impostor.size > cap:
        rng = np.random.default_rng(seed)
        idx = rng.choice(impostor.size, size=cap, replace=False)
        impostor = impostor[np.sort(idx)]
    return genuine, impostor


def score_pairs(embeddings: np.ndarray, labels, cap: int = IMPOSTOR_PAIR_CAP,
                seed: int = 0, positions=None) -> ScoreSet:
    """Cosine similarities of all same-label and cross-label embedding pairs.

    Impostor pairs beyond `cap` are subsampled with the given seed.
    `positions` is `pair_positions(labels, cap, seed)`, found here when None.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    if embeddings.ndim != 2 or labels.shape != (embeddings.shape[0],):
        raise ShapeError("expect (n, dim) embeddings and (n,) labels")
    norms = np.linalg.norm(embeddings, axis=1)
    if np.any(norms == 0):
        raise DomainError("zero-norm embedding cannot be scored")
    if positions is None:
        positions = pair_positions(labels, cap, seed)
    unit = embeddings / norms[:, None]
    sims = (unit @ unit.T).ravel()
    genuine, impostor = positions
    return ScoreSet(sims[genuine], sims[impostor])


def operating_points(scores: ScoreSet):
    """FAR and FRR at every observed threshold (ascending) plus a +inf sentinel.

    Acceptance rule: accept when score >= threshold. FAR(t) is the impostor
    acceptance fraction, FRR(t) the genuine rejection fraction.
    """
    if scores.genuine.size == 0 or scores.impostor.size == 0:
        raise DomainError("both genuine and impostor scores are required")
    n_g, n_i = scores.genuine.size, scores.impostor.size
    # one stable sort of the two sorted runs merges them (temporaries are
    # dropped once read: a run holds every client's last sweep)
    merged = np.concatenate([np.sort(scores.genuine), np.sort(scores.impostor)])
    order = np.argsort(merged, kind="stable")
    is_imp, merged = order >= n_g, merged[order]
    del order
    first = np.flatnonzero(np.concatenate([[True], merged[1:] != merged[:-1]]))
    del merged
    # impostors ahead of each threshold's first position score below it
    imp_below = np.cumsum(is_imp)[first] - is_imp[first]
    # integer counts first: 1.0 - m/n would round at exact-boundary FARs;
    # the last entries are for a threshold above every score
    far = np.append((n_i - imp_below) / n_i, 0.0)
    frr = np.append((first - imp_below) / n_g, 1.0)
    del first, imp_below
    # np.unique, not the merge above, picks which of -0.0 and +0.0 stands
    # for their tie; the merge can pick the other one
    thresholds = np.append(np.unique(np.concatenate([scores.genuine, scores.impostor])),
                           np.inf)
    return thresholds, far, frr


def eer(points) -> float:
    """Error rate where FAR equals FRR on an `operating_points` sweep, interpolated."""
    _, far, frr = points
    diff = far - frr
    # diff is nonincreasing and ends at -1; find the sign change.
    k = int(np.argmax(diff <= 0))
    if k == 0:
        return 0.5 * (far[0] + frr[0])
    d0, d1 = diff[k - 1], diff[k]
    alpha = 0.0 if d0 == d1 else d0 / (d0 - d1)
    e0 = 0.5 * (far[k - 1] + frr[k - 1])
    e1 = 0.5 * (far[k] + frr[k])
    return float((1.0 - alpha) * e0 + alpha * e1)


def tar_at_far(points, far_target: float = 0.01) -> float:
    """TAR at the lowest swept threshold whose empirical FAR <= far_target."""
    if not 0.0 < far_target < 1.0:
        raise DomainError("far_target must be in (0, 1)")
    _, far, frr = points
    ok = np.nonzero(far <= far_target)[0]
    k = int(ok[0])  # sentinel guarantees at least one
    return float(1.0 - frr[k])


def write_metrics_csv(path, records) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_CSV_HEADER)
        for rec in records:
            writer.writerow(rec.as_row())
