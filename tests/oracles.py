"""Reference implementations that tests check the package's kernels against.
The package itself only runs the batch kernels in `fedsim.losses`, `fedsim.nn`
and `fedsim.aggregation`; these are written one vector (or one full row) at a
time so a test can compare the two. The open-set scoring references recompute
every pair mask, the impostor subsample and the threshold search on each call,
read EER and TAR off the whole threshold sweep, and repr every row of a ROC
trace. The timeline reference is the event loop that ran the schedule before
it was planned, with the training taken out. The batch-kernel references
below are the kernels as first written, with the same arithmetic and none of
the shortcuts: the fast kernels must match them byte for byte. So must the
convergence harness's gaps those of its per-client loop below, at dim >= 2.
So must a fresh client those of the build below, which draws the common
federated init again per client and takes each class center's mean by mask,
and the rotation matrix that of its loop over coordinate pairs.
"""

import itertools
import math

import numpy as np

from fedsim.client import ClientState, fused_embeddings
from fedsim.errors import DomainError, ShapeError
from fedsim.losses import CenterBank
from fedsim.metrics import IMPOSTOR_PAIR_CAP, ScoreSet
from fedsim.nn import MLP, init_params
from fedsim.simulation import EventKind, TimelineRecord


def channel(in_dim, hidden, emb_dim, seed) -> MLP:
    """Feature extractor: in -> tanh(hidden) -> emb."""
    sizes = (in_dim, hidden, emb_dim)
    return MLP(sizes, "linear", init_params(sizes, seed))


def linear_head(in_dim, out_dim, seed) -> MLP:
    sizes = (in_dim, out_dim)
    return MLP(sizes, "linear", init_params(sizes, seed))


def fusion_head(in_dim, out_dim, seed) -> MLP:
    """Feature fusion layer: single linear map with tanh output."""
    sizes = (in_dim, out_dim)
    return MLP(sizes, "tanh", init_params(sizes, seed))


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def cross_entropy_batch(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy of ([G,] B, k) logits with 2-D fancy indexing;
    returns (loss, dlogits)."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim < 2 or labels.shape != logits.shape[:-1]:
        raise ShapeError("expect ([G,] B, k) logits and ([G,] B) integer labels")
    b, k = logits.shape[-2:]
    rows, flat_labels = np.arange(labels.size), labels.ravel()
    lsm = log_softmax(logits)
    picked = lsm.reshape(-1, k)[rows, flat_labels].reshape(labels.shape)
    loss = -(picked.sum(axis=-1) / b)
    dlogits = np.exp(lsm)
    dlogits.reshape(-1, k)[rows, flat_labels] -= 1.0
    return loss, dlogits / b


def fv_cos_batch(f_p: np.ndarray, f_g: np.ndarray):
    """Mean alignment loss over a batch with per-sample gradients (already /B),
    norms from `np.linalg.norm`."""
    norm_p = np.linalg.norm(f_p, axis=-1)
    norm_g = np.linalg.norm(f_g, axis=-1)
    if np.any(norm_p == 0) or np.any(norm_g == 0):
        raise DomainError("zero-norm embedding in cosine alignment loss")
    cos = (f_p * f_g).sum(axis=-1) / (norm_p * norm_g)
    loss = np.abs(cos - 1.0).mean(axis=-1)
    b = f_p.shape[-2]
    sign = np.sign(cos - 1.0)[..., None] / b
    d_p = sign * (f_g / (norm_p * norm_g)[..., None] - (cos / norm_p**2)[..., None] * f_p)
    d_g = sign * (f_p / (norm_p * norm_g)[..., None] - (cos / norm_g**2)[..., None] * f_g)
    return loss, d_p, d_g


def update_centers(bank, embeddings: np.ndarray, labels) -> None:
    """Move each touched center of `bank` toward its class's batch mean, the
    class sums accumulated by `np.add.at`. Labels must be valid."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    k, dim = bank.centers.shape[-2:]
    if labels.ndim == 2:
        labels = labels + k * np.arange(labels.shape[0])[:, None]
    rows = labels.ravel()
    centers = bank.centers.reshape(-1, dim)
    sums = np.zeros_like(centers)
    np.add.at(sums, rows, embeddings.reshape(-1, dim))
    counts = np.bincount(rows, minlength=centers.shape[0])
    touched = np.flatnonzero(counts)
    c = centers[touched]
    batch_mean = sums[touched] / counts[touched, None]
    at = np.unravel_index(touched, bank.centers.shape[:-1])
    bank.centers[at] = c + bank.lr * (batch_mean - c)


def build_client(client_id, train, *, input_dim, training, seed=0) -> ClientState:
    """A fresh client as first built: its own draw of the federated channel's
    common init, and each class center a boolean-mask `mean(axis=0)` of its
    initial embeddings, which `fedsim.client.build_client` matches at fuse_dim >= 2."""
    tr = training
    n_classes = train.n_classes
    base = (seed, client_id)
    lc = channel(input_dim, tr.local_hidden, tr.emb_dim, (*base, 1))
    fc = channel(input_dim, tr.fed_hidden, tr.emb_dim, (seed, 2))
    h1 = linear_head(tr.emb_dim, n_classes, (*base, 3))
    fu = fusion_head(2 * tr.emb_dim, tr.fuse_dim, (*base, 4))
    h2 = linear_head(tr.fuse_dim, n_classes, (*base, 5))
    z = fused_embeddings(lc, fc, fu, train.inputs)
    bank = CenterBank([z[train.labels == k].mean(axis=0) for k in range(n_classes)],
                      lr=tr.center_lr)
    return ClientState(
        client_id=client_id, local_channel=lc, fed_channel=fc, head1=h1,
        head2=h2, fusion=fu, center_bank=bank, dataset=train,
        loss_weights=tr.loss_weights(), lr=tr.lr, local_epochs=tr.epochs,
        batch_size=tr.batch,
        _batch_rng=np.random.default_rng((*base, 11)),
        _async_rng=np.random.default_rng((*base, 13)),
    )


def rotation_matrix(dim: int, angle_deg: float) -> np.ndarray:
    """Block-diagonal planar rotation, filled one coordinate pair at a time."""
    theta = math.radians(angle_deg)
    c, s = math.cos(theta), math.sin(theta)
    mat = np.eye(dim)
    for i in range(0, dim - 1, 2):
        mat[i, i] = c
        mat[i, i + 1] = -s
        mat[i + 1, i] = s
        mat[i + 1, i + 1] = c
    return mat


def backward_batch(model, cache, dy: np.ndarray):
    """Backprop through an `MLP` layer by layer, the input gradient always
    computed; returns (dparams, dx)."""
    dy = np.asarray(dy, dtype=np.float64)
    layers = model.layers()
    last = len(layers) - 1
    dparams = np.empty_like(model.params)
    grad = dy
    for i in range(last, -1, -1):
        w, _ = layers[i]
        out = cache[i + 1]
        if i < last or model.out_act == "tanh":
            grad = grad * (1.0 - out * out)
        w_lo, b_lo, b_hi = model._offsets[i]
        np.matmul(grad.swapaxes(-1, -2), cache[i],
                  out=dparams[..., w_lo:b_lo].reshape(w.shape))
        grad.sum(axis=-2, out=dparams[..., b_lo:b_hi])
        grad = grad @ w
    return dparams, grad


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


def finite_difference_grad_stacked(loss_of_stack, params: np.ndarray,
                                   step: float = 1e-5) -> np.ndarray:
    """`finite_difference_grad` with every perturbed vector evaluated in one
    call: `loss_of_stack` takes a (2L, L) stack, the L vectors each raised at
    one entry and then the L lowered ones, and returns their (2L,) losses."""
    params = np.asarray(params, dtype=np.float64)
    shift = step * np.eye(params.size)
    losses = loss_of_stack(np.concatenate([params + shift, params - shift]))
    return (losses[:params.size] - losses[params.size:]) / (2.0 * step)


def correlation_rows(embs: np.ndarray) -> np.ndarray:
    """R[i, j] = sum_t cos(embs[i, t], embs[j, t]) for (N, T, dim) embeddings, every
    ordered pair computed on its own: row i against all N clients."""
    norms = np.linalg.norm(embs, axis=-1)
    if np.any(norms == 0):
        raise DomainError("zero-norm probe embedding")
    return np.stack([((e * embs).sum(-1) / (n * norms)).sum(-1)
                     for e, n in zip(embs, norms)])


def mix(params, weights: np.ndarray, gamma: float) -> np.ndarray:
    """Rows gamma * sum_u weights[n, u] * params[u] + (1 - gamma) * params[n]: one axpy
    per u in ascending order (rounds like a lone per-client sum), no copy of params."""
    acc = np.zeros((len(weights), len(params[0])))
    for u, p in enumerate(params):
        acc += weights[:, u, None] * p
    acc *= gamma
    for row, p in zip(acc, params):
        row += (1.0 - gamma) * p
    return acc


def score_pairs(embeddings: np.ndarray, labels, cap: int = IMPOSTOR_PAIR_CAP,
                seed: int = 0) -> ScoreSet:
    """Cosine similarities of all same-label and cross-label embedding pairs,
    with the pair masks and impostor subsample found anew."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    if embeddings.ndim != 2 or labels.shape != (embeddings.shape[0],):
        raise ShapeError("expect (n, dim) embeddings and (n,) labels")
    norms = np.linalg.norm(embeddings, axis=1)
    if np.any(norms == 0):
        raise DomainError("zero-norm embedding cannot be scored")
    unit = embeddings / norms[:, None]
    sims = unit @ unit.T
    n = embeddings.shape[0]
    # boolean masks read the upper triangle in row-major (i < j) order
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    same = labels[:, None] == labels[None, :]
    genuine = sims[same & upper]
    impostor = sims[~same & upper]
    if genuine.size == 0:
        raise DomainError("no genuine pairs: need an identity with >= 2 samples")
    if impostor.size == 0:
        raise DomainError("no impostor pairs: need >= 2 identities")
    if impostor.size > cap:
        rng = np.random.default_rng(seed)
        idx = rng.choice(impostor.size, size=cap, replace=False)
        impostor = impostor[np.sort(idx)]
    return ScoreSet(genuine, impostor)


def operating_points(scores: ScoreSet):
    """FAR and FRR at every observed threshold (ascending) plus a +inf
    sentinel, each count found by a binary search of the sorted scores."""
    if scores.genuine.size == 0 or scores.impostor.size == 0:
        raise DomainError("both genuine and impostor scores are required")
    thresholds = np.unique(np.concatenate([scores.genuine, scores.impostor]))
    gen = np.sort(scores.genuine)
    imp = np.sort(scores.impostor)
    n_g, n_i = gen.size, imp.size
    far = (n_i - np.searchsorted(imp, thresholds, side="left")) / n_i
    frr = np.searchsorted(gen, thresholds, side="left") / n_g
    far = np.append(far, 0.0)
    frr = np.append(frr, 1.0)
    thresholds = np.append(thresholds, np.inf)
    return thresholds, far, frr


def eer(points) -> float:
    """Error rate where FAR equals FRR on an `operating_points` sweep, interpolated
    between the two sweep entries around the first FAR - FRR <= 0."""
    _, far, frr = points
    diff = far - frr
    # diff is nonincreasing, starts at +1 (FAR 1, FRR 0) and ends at -1,
    # so the sign change is at some k >= 1
    k = int(np.argmax(diff <= 0))
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


def client_grad(problem, k, w):
    """Gradient of client k's quadratic at w, one client at a time."""
    return problem.mats[k] @ (w - problem.targets[k])


def centralized_grad(problem, w):
    """Gradient of the weighted objective sum_k p_k F_k at w, one client at a
    time: the centralized descent that noise-free FedAvg with one local step is."""
    out = np.zeros(problem.dim)
    for k, p in enumerate(problem.weights):
        out += p * client_grad(problem, k, w)
    return out


def run_fedavg_convergence(problem, rounds: int, local_steps: int,
                           lr_scale: float, lr_offset: float, noise: float,
                           seed, replicates: int = 1, w0: np.ndarray = None):
    """The convergence harness as first written: a per-client loop on a model
    stack tiled from the average each round, averaged by its own einsum.
    Returns (mean_gap, std_gap)."""
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
                    g = client_grad(problem, k, locals_[k])
                    if noise > 0:
                        g = g + noise * rng.standard_normal(problem.dim)
                    locals_[k] -= lr * g
                t += 1
            w = np.einsum("k,ki->i", problem.weights, locals_)
            gap = problem.value(w) - problem.f_star
            if gap > 1e6:
                raise DomainError(f"divergence at round {r}: gap {gap:.3g}")
            gaps[rep, r + 1] = gap
    return gaps.mean(axis=0), gaps.std(axis=0)


def event_timeline(cfg, steps_per_round, solo=False, first_rounds=None) -> list:
    """`simulation.plan` as an event loop: of the queued events, the one of least
    (tick, kind rank, subject, queue order) runs next, and an async step runs
    only while its client waits in the round that queued it. Every client and
    the server start at first_rounds[0] unless `solo`."""
    n, d = cfg.n_clients, cfg.async_step_duration
    rounds = list(first_rounds or [0] * n)
    last, server_round = [r + cfg.rounds - 1 for r in rounds], rounds[0]
    waiting, done_at, steps = [False] * n, [0] * n, [0] * n
    queue, out, uploads, seq = [], [], 0, itertools.count()

    def push(t, kind, c, r=None):
        queue.append((t, kind.value, c, next(seq), kind, r))

    def start(c, t):
        push(t + cfg.local_step_duration[c] * steps_per_round[c],
             EventKind.LOCAL_ROUND_DONE, c)

    for c in range(n):
        start(c, 0)
    while queue:
        event = min(queue)
        queue.remove(event)
        t, _, c, _, kind, r = event
        if kind is EventKind.LOCAL_ROUND_DONE:
            out.append((c, TimelineRecord(t, kind.name, c, rounds[c])))
            waiting[c], done_at[c], steps[c] = True, t, 0
            if solo:
                push(t, EventKind.MODEL_RETURNED, c)
            else:
                push(t + cfg.upload_latency[c], EventKind.UPLOAD_ARRIVED, c)
                if d is not None:
                    push(t + d, EventKind.ASYNC_STEP_DUE, c, rounds[c])
        elif kind is EventKind.ASYNC_STEP_DUE:
            if waiting[c] and rounds[c] == r:
                steps[c] += 1
                out.append((c, TimelineRecord(t, kind.name, c, r)))
                push(t + d, kind, c, r)
        elif kind is EventKind.UPLOAD_ARRIVED:
            out.append((c, TimelineRecord(t, kind.name, -1, server_round)))
            uploads += 1
            if uploads == n:
                uploads = 0
                push(t + cfg.server_compute_time, EventKind.AGGREGATION_DONE, -1)
        elif kind is EventKind.AGGREGATION_DONE:
            out.append((-1, TimelineRecord(t, kind.name, -1, server_round)))
            server_round += 1
            for c in range(n):
                push(t + cfg.download_latency[c], EventKind.MODEL_RETURNED, c)
        else:
            idle = t - done_at[c] - steps[c] * (d or 0)
            out.append((c, TimelineRecord(t, kind.name, c, rounds[c], steps[c], idle)))
            waiting[c] = False
            rounds[c] += 1
            if rounds[c] <= last[c]:
                start(c, t)
    end = out[-1][1].t if out else 0
    return out + [(-1, TimelineRecord(end, EventKind.EXPERIMENT_END.name, -1, cfg.rounds))]
