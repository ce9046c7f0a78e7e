"""Open-set verification scoring: pairwise cosine scores, equal error rate,
and true-acceptance rate at a false-acceptance budget."""

import csv
import operator
from bisect import bisect_left
from dataclasses import astuple, dataclass, fields
from functools import cached_property

import numpy as np

from .errors import DomainError, ShapeError

IMPOSTOR_PAIR_CAP = 50_000


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

    @cached_property
    def runs(self):
        """(genuine, impostor), each sorted ascending, found once per set."""
        if self.genuine.size == 0 or self.impostor.size == 0:
            raise DomainError("both genuine and impostor scores are required")
        return np.sort(self.genuine), np.sort(self.impostor)

    def rows(self):
        """Each row of a (G, k) set as a ScoreSet, checked and sorted with the whole set."""
        for genuine, impostor, *runs in zip(self.genuine, self.impostor, *self.runs):
            row = object.__new__(ScoreSet)   # checked already, as a row of this set
            vars(row).update(genuine=genuine, impostor=impostor, runs=tuple(runs))
            yield row


@dataclass
class MetricsRecord:
    client_id: int
    round: int
    eer: float
    tar_at_far01: float
    n_genuine: int
    n_impostor: int


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
    upper = np.arange(n)[:, None] < np.arange(n)
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


def score_pairs(embeddings: np.ndarray, labels, *, positions) -> ScoreSet:
    """Cosine similarities of the genuine and impostor embedding pairs at
    `positions`, a `pair_positions(labels, cap, seed)`, of ([G,] n, dim) embeddings
    whose rows share the (n,) labels: a ScoreSet of ([G,] k) arrays. Each row's
    `unit @ unit.T` is a syrk of its own, so it scores as it would alone."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    if embeddings.ndim not in (2, 3) or labels.shape != embeddings.shape[-2:-1]:
        raise ShapeError("expect ([G,] n, dim) embeddings and (n,) labels")
    norms = np.linalg.norm(embeddings, axis=-1, keepdims=True)
    if np.any(norms == 0):
        raise DomainError("zero-norm embedding cannot be scored")
    unit = embeddings / norms
    sims = (unit @ unit.swapaxes(-1, -2)).reshape(*embeddings.shape[:-2], -1)
    genuine, impostor = positions
    return ScoreSet(sims.take(genuine, axis=-1), sims.take(impostor, axis=-1))


def operating_points(scores: ScoreSet):
    """FAR and FRR at every observed threshold (ascending) plus a +inf sentinel.

    Acceptance rule: accept when score >= threshold. FAR(t) is the impostor
    acceptance fraction, FRR(t) the genuine rejection fraction.
    """
    merged = np.concatenate(scores.runs)   # raises if either side is empty
    n_g, n_i = scores.genuine.size, scores.impostor.size
    # one stable sort of the two sorted runs merges them (temporaries are
    # dropped once read, to keep the trace write's peak low)
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


def _curve(curve):
    """Sorted runs of candidate thresholds and v -> (FAR(v), FRR(v)) of a
    ScoreSet or an `operating_points` sweep; above every score FAR is 0, FRR 1."""
    if not isinstance(curve, ScoreSet):
        thresholds, far, frr = curve
        return (thresholds,), lambda v: (far[k := bisect_left(thresholds, v)], frr[k])
    gen, imp = curve.runs
    n_g, n_i = gen.size, imp.size
    # exact integer quotients, as in the sweep: the same rates to the bit
    return (gen, imp), lambda v: ((n_i - bisect_left(imp, v)) / n_i, bisect_left(gen, v) / n_g)


def _lowest(runs, holds):
    """Lowest candidate in the sorted `runs` where `holds`, false then true as
    the threshold rises; +inf where it holds only above every candidate."""
    return min((run[i] for run in runs
                if (i := bisect_left(run, True, key=holds)) < len(run)), default=np.inf)


def eer(curve) -> float:
    """Error rate where FAR equals FRR, interpolated between the candidate
    thresholds around the crossing, of a ScoreSet or an `operating_points` sweep."""
    runs, rates = _curve(curve)
    # FAR - FRR never rises with the threshold: it is +1 at the lowest
    # candidate and -1 above every score, so some candidate lies below v1
    v1 = _lowest(runs, lambda v: operator.le(*rates(v)))   # FAR - FRR <= 0
    v0 = max(run[i - 1] for run in runs if (i := bisect_left(run, v1)) > 0)
    (far0, frr0), (far1, frr1) = rates(v0), rates(v1)
    d0, d1 = far0 - frr0, far1 - frr1
    alpha = 0.0 if d0 == d1 else d0 / (d0 - d1)
    return float((1.0 - alpha) * (0.5 * (far0 + frr0)) + alpha * (0.5 * (far1 + frr1)))


def tar_at_far(curve, far_target: float = 0.01) -> float:
    """TAR at the lowest candidate threshold whose empirical FAR <= far_target,
    of a ScoreSet or an `operating_points` sweep."""
    runs, rates = _curve(curve)
    if not 0.0 < far_target < 1.0:
        raise DomainError("far_target must be in (0, 1)")
    # FAR never rises with the threshold and is 0 above every score
    return float(1.0 - rates(_lowest(runs, lambda v: rates(v)[0] <= far_target))[1])


def write_metrics_csv(path, records) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(f.name for f in fields(MetricsRecord))
        for rec in records:
            writer.writerow(astuple(rec))
