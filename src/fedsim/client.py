"""Client lifecycle: full-model local training, upload of the federated
channel, async training of the local channel while waiting, and adoption of
the returned personalized parameters.

Clients train in groups: a `ClientGroup` stacks the trained parts, center
banks and training sets of clients that share every shape and training
setting, and each member's own arrays are row views of those stacks. One
kernel call with a leading group axis then steps every member at once, and
row g equals member g stepped alone through its own arrays, bit for bit.
"""

import enum
from dataclasses import dataclass, field
from operator import is_not

import numpy as np

from .errors import ConfigError, DivergenceError, DomainError, ProtocolError, ShapeError
from .losses import (CenterBank, LossWeights, center_loss_grad,
                     cross_entropy_batch, fv_cos_batch, total_loss, update_centers)
from .nn import (GROUP_ROWS, MLP, backward_batch, channel, forward_batch,
                 fusion_head, linear_head)
from .synth import LabeledDataset


@dataclass(frozen=True)
class TrainingParams:
    """Every client training setting; the single source of their defaults."""

    lr: float = 0.05
    epochs: int = 3
    batch: int = 16
    alpha1: float = 0.05
    alpha2: float = 1.0
    alpha3: float = 0.02
    center_lr: float = 0.1
    local_hidden: int = 64
    fed_hidden: int = 32
    emb_dim: int = 16
    fuse_dim: int = 16

    def __post_init__(self):
        if not (0 <= self.lr < np.inf and 0 <= self.center_lr < np.inf):
            raise ConfigError("lr and center_lr must be finite and >= 0")
        if min(self.epochs, self.batch, self.local_hidden, self.fed_hidden,
               self.emb_dim, self.fuse_dim) < 1:
            raise ConfigError("epochs, batch and layer widths must be >= 1")
        self.loss_weights()  # checks the alphas

    def loss_weights(self) -> LossWeights:
        return LossWeights(self.alpha1, self.alpha2, self.alpha3)


class Phase(enum.Enum):
    LOCAL_TRAINING = "local_training"
    WAITING = "waiting"
    IDLE = "idle"


@dataclass(frozen=True)
class UploadMessage:
    client_id: int
    fed_round: int
    params: np.ndarray


def local_loss_and_grads(local_channel, fed_channel, fusion, head2, bank,
                         x_batch, y_batch, weights: LossWeights):
    """Full local-training loss and analytic gradients for the four trained parts.

    Returns (loss, grads dict, fused embeddings). Group models and bank take
    (G, B, ·) batches and give a (G,) loss and (G, L) gradients.
    """
    f_p, cache_p = forward_batch(local_channel, x_batch)
    f_g, cache_g = forward_batch(fed_channel, x_batch)
    fused_in = np.concatenate([f_p, f_g], axis=-1)
    z, cache_f = forward_batch(fusion, fused_in)
    logits, cache_h = forward_batch(head2, z)

    ce2, dlogits = cross_entropy_batch(logits, y_batch)
    if weights.alpha1 > 0:
        fv, dfp_fv, dfg_fv = fv_cos_batch(f_p, f_g)
    else:
        fv, dfp_fv, dfg_fv = 0.0, 0.0, 0.0
    if weights.alpha3 > 0:
        cen, dz_cen = center_loss_grad(z, y_batch, bank)
    else:
        cen, dz_cen = 0.0, 0.0
    loss = total_loss(fv, ce2, cen, weights)

    dp_head2, dz = backward_batch(head2, cache_h, weights.alpha2 * dlogits)
    dz = dz + weights.alpha3 * dz_cen
    dp_fusion, dfused = backward_batch(fusion, cache_f, dz)
    emb_l = local_channel.out_dim
    dfp = dfused[..., :emb_l] + weights.alpha1 * dfp_fv
    dfg = dfused[..., emb_l:] + weights.alpha1 * dfg_fv
    dp_local, _ = backward_batch(local_channel, cache_p, dfp, input_grad=False)
    dp_fed, _ = backward_batch(fed_channel, cache_g, dfg, input_grad=False)
    grads = {"local": dp_local, "fed": dp_fed, "fusion": dp_fusion, "head2": dp_head2}
    return loss, grads, z


def async_loss_and_grads(local_channel, head1, x_batch, y_batch):
    """Cross-entropy loss through the local channel and its own classifier."""
    f_p, cache_p = forward_batch(local_channel, x_batch)
    logits, cache_h = forward_batch(head1, f_p)
    loss, dlogits = cross_entropy_batch(logits, y_batch)
    dp_head1, dfp = backward_batch(head1, cache_h, dlogits)
    dp_local, _ = backward_batch(local_channel, cache_p, dfp, input_grad=False)
    return loss, {"local": dp_local, "head1": dp_head1}


def fused_embeddings(local_channel, fed_channel, fusion, inputs):
    """(B, fuse_dim) fused representations of a (B, input_dim) batch."""
    f_p, _ = forward_batch(local_channel, inputs)
    f_g, _ = forward_batch(fed_channel, inputs)
    z, _ = forward_batch(fusion, np.concatenate([f_p, f_g], axis=-1))
    return z


# grads dict key -> the ClientState field holding that part's model
_PART_MODELS = {"local": "local_channel", "fed": "fed_channel", "fusion": "fusion",
                "head1": "head1", "head2": "head2"}


@dataclass
class ClientState:
    client_id: int
    local_channel: MLP
    fed_channel: MLP
    head1: MLP
    head2: MLP
    fusion: MLP
    center_bank: CenterBank
    dataset: LabeledDataset
    loss_weights: LossWeights
    lr: float
    local_epochs: int
    batch_size: int
    _batch_rng: np.random.Generator
    _async_rng: np.random.Generator
    fed_round: int = 0
    phase: Phase = Phase.LOCAL_TRAINING
    last_epoch_losses: list = field(default_factory=list)

    # -- training ---------------------------------------------------------

    def n_batches(self) -> int:
        n = self.dataset.labels.size
        return -(-n // self.batch_size)

    def local_train_round(self) -> UploadMessage:
        """This client's local round, trained as a group of one."""
        return _raise_diverged(ClientGroup([self]).local_rounds([0])[0])

    def async_train_step(self) -> float:
        """One waiting-time step of the local channel, as a group of one."""
        return _raise_diverged(ClientGroup([self]).async_steps([0])[0])

    def _diverged(self, message: str, phase: str, batch_index=None) -> DivergenceError:
        return DivergenceError(message, round_index=self.fed_round,
                               batch_index=batch_index, client_id=self.client_id,
                               phase=phase)

    # -- protocol ---------------------------------------------------------

    def adopt_global(self, new_fed_params: np.ndarray) -> None:
        if self.phase is not Phase.WAITING:
            raise ProtocolError(f"adopt_global in phase {self.phase}")
        new_fed_params = np.asarray(new_fed_params, dtype=np.float64)
        if new_fed_params.shape != self.fed_channel.params.shape:
            raise ShapeError("dispatched parameters do not match federated channel")
        if not np.isfinite(new_fed_params).all():
            raise self._diverged("non-finite dispatched parameters", "adopt")
        # copied into the client's own row: training never writes into the sender's array
        self.fed_channel.params[...] = new_fed_params
        self.fed_round += 1
        self.phase = Phase.LOCAL_TRAINING

    def finish(self) -> None:
        self.phase = Phase.IDLE

    # -- inference --------------------------------------------------------

    def extract_embeddings(self, inputs: np.ndarray) -> np.ndarray:
        """Fused pre-classifier representations used for open-set matching."""
        return fused_embeddings(self.local_channel, self.fed_channel, self.fusion, inputs)


def _raise_diverged(result):
    if isinstance(result, DivergenceError):
        raise result
    return result


def _group_key(client: ClientState) -> tuple:
    """What clients of one group must share: every array shape and every
    training setting except the learning rate, which is read per client."""
    return (tuple((getattr(client, attr).sizes, getattr(client, attr).out_act)
                  for attr in _PART_MODELS.values()),
            client.center_bank.centers.shape, client.center_bank.lr,
            client.dataset.inputs.shape, client.batch_size, client.local_epochs,
            client.loss_weights)


def _own_arrays(c: ClientState) -> tuple:
    """The arrays of a client that its group stacks, in a fixed order."""
    return (c.local_channel.params, c.fed_channel.params, c.fusion.params, c.head1.params,
            c.head2.params, c.center_bank.centers, c.dataset.inputs, c.dataset.labels)


class ClientGroup:
    """Clients of one `_group_key`, trained in one of two step shapes.

    Two members or more are stacked: one (G, L) model per trained part, one
    (G, K, d) center bank and (G, n, ·) training sets, of which each member's
    `MLP.params`, `CenterBank.centers` and dataset arrays become row views. A
    step of every member is one kernel call on the stacks; any other step
    takes each stepped member alone through its own arrays, bit for bit its
    row of the stacked call. A group of one stacks nothing. A stacked member
    that rebinds one of its arrays is refused at its next step. Members keep
    their own learning rate and RNG streams."""

    def __init__(self, members):
        self.members = list(members)
        first = self.members[0]
        if any(_group_key(c) != _group_key(first) for c in self.members):
            raise ShapeError("clients of one group must share shapes and settings")
        self.local_epochs = first.local_epochs
        self.batch_size = first.batch_size
        self.loss_weights = first.loss_weights
        self.n_samples = first.dataset.labels.size
        self.models = None   # the stacks, with two members or more
        if len(self.members) == 1:
            return
        self.models = {attr: MLP(getattr(first, attr).sizes, getattr(first, attr).out_act,
                                 np.stack([getattr(c, attr).params for c in self.members]))
                       for attr in _PART_MODELS.values()}
        self.bank = CenterBank(np.stack([c.center_bank.centers for c in self.members]),
                               first.center_bank.lr)
        self.inputs = np.stack([c.dataset.inputs for c in self.members])
        self.labels = np.stack([c.dataset.labels for c in self.members])
        for g, c in enumerate(self.members):
            for attr, model in self.models.items():
                getattr(c, attr).params = model.params[g]
            c.center_bank.centers = self.bank.centers[g]
            c.dataset.inputs, c.dataset.labels = self.inputs[g], self.labels[g]
        self._rows = [_own_arrays(c) for c in self.members]
        # views of the (G, n, ·) sets as (G*n, ·) rows: sample i of member g is row g*n + i
        self._flat_inputs = self.inputs.reshape(-1, self.inputs.shape[-1])
        self._flat_labels = self.labels.reshape(-1)
        self._row_offset = np.arange(0, self.labels.size, self.n_samples)[:, None]

    def _check(self, rows, phase, step):
        for g in rows:
            c = self.members[g]
            if c.phase is not phase:
                raise ProtocolError(f"{step} in phase {c.phase}")
            if self.models is not None and any(map(is_not, _own_arrays(c), self._rows[g])):
                raise ProtocolError(f"client {c.client_id} rebound an array of its group")

    def local_rounds(self, rows) -> dict:
        """One local round of each member in `rows` (sorted row indices).

        Returns {row: the member's UploadMessage, or the DivergenceError that
        stopped its round}; the other members' rounds run to the end.
        """
        self._check(rows, Phase.LOCAL_TRAINING, "local_train_round")
        n, size = self.n_samples, self.batch_size
        order = np.empty((len(self.members), n), dtype=np.int64)
        dead = {}
        for g in rows:
            self.members[g].last_epoch_losses = []
        for _ in range(self.local_epochs):
            live = [g for g in rows if g not in dead]
            for g in live:
                order[g] = self.members[g]._batch_rng.permutation(n)
            losses = {g: [] for g in live}
            for b_idx, start in enumerate(range(0, n, size)):
                self._steps([g for g in live if g not in dead], "local", b_idx,
                            order[:, start:start + size], losses, dead)
            for g in live:
                self.members[g].last_epoch_losses.append(losses[g])
        results = {}
        for g in rows:
            c = self.members[g]
            if g not in dead:
                c.phase = Phase.WAITING
            results[g] = dead[g] if g in dead else UploadMessage(
                c.client_id, c.fed_round, c.fed_channel.params.copy())
        return results

    def async_steps(self, rows) -> dict:
        """One waiting-time step of each member in `rows` (sorted row indices).

        Returns {row: the member's loss, or the DivergenceError of its step}.
        """
        self._check(rows, Phase.WAITING, "async_train_step")
        n, size = self.n_samples, min(self.batch_size, self.n_samples)
        idx = np.empty((len(self.members), size), dtype=np.int64)
        for g in rows:
            idx[g] = self.members[g]._async_rng.choice(n, size=size, replace=False)
        losses, dead = {g: [] for g in rows}, {}
        self._steps(rows, "async", None, idx, losses, dead)
        return {g: dead[g] if g in dead else losses[g][0] for g in rows}

    def _steps(self, rows, phase, batch_index, idx, losses, dead):
        """Step the members in `rows` all at once through the stacks, or each alone."""
        if self.models is not None and len(rows) == len(self.members):
            try:
                return self._step(None, phase, batch_index, idx, losses, dead)
            except DomainError:
                pass   # non-finite activations from exploded parameters: find whose
        for g in rows:
            self._step(g, phase, batch_index, idx[g], losses, dead)

    # the finite checks below report an overflow once, as a DivergenceError;
    # numpy's RuntimeWarnings for it would only add lines ahead of that one
    @np.errstate(over="ignore", invalid="ignore")
    def _step(self, g, phase, batch_index, idx, losses, dead):
        """One SGD step on training rows `idx`: of member g through its own
        arrays, or of every member through the stacks when g is None.

        Appends each member's loss to losses[row]. A member whose loss or an
        updated part is non-finite gets its first error in dead[row], with
        the message, round, phase and batch a step of it alone would raise. A
        stacked step lets a `DomainError` through, raised before any update."""
        if g is None:
            rows, models, bank = range(len(self.members)), self.models, self.bank
            at = idx + self._row_offset
            xb, yb = self._flat_inputs.take(at, axis=0), self._flat_labels.take(at)
            lr = np.array([c.lr for c in self.members], dtype=np.float64)[:, None]
        else:
            c = self.members[g]
            rows, bank, lr = (g,), c.center_bank, c.lr
            models = {attr: getattr(c, attr) for attr in _PART_MODELS.values()}
            xb, yb = c.dataset.inputs[idx], c.dataset.labels[idx]
        try:
            if phase == "local":
                out = local_loss_and_grads(
                    models["local_channel"], models["fed_channel"], models["fusion"],
                    models["head2"], bank, xb, yb, self.loss_weights)
            else:
                out = async_loss_and_grads(models["local_channel"], models["head1"], xb, yb)
        except DomainError as exc:
            if g is None:
                raise
            err = c._diverged(f"{phase} training diverged: {exc}", phase, batch_index)
            err.__cause__ = exc
            dead[g] = err
            return

        loss, grads = out[0], out[1]
        finite = np.isfinite(loss).all()
        for part, grad in grads.items():
            params = models[_PART_MODELS[part]].params
            grad *= lr
            params -= grad
            finite &= np.isfinite(params).all()
        if not finite:
            # name the members: the loss first, then each part in update order
            for what, bad in [("loss", ~np.isfinite(loss))] + [
                    ("parameters", ~np.isfinite(models[_PART_MODELS[part]].params).all(axis=-1))
                    for part in grads]:
                for i in np.flatnonzero(bad):
                    dead.setdefault(rows[i], self.members[rows[i]]._diverged(
                        f"non-finite {phase} training {what}", phase, batch_index))
        if phase == "local" and self.loss_weights.alpha3 > 0:
            update_centers(bank, out[2], yb)
        for row, value in zip(rows, np.atleast_1d(loss).tolist()):
            losses[row].append(value)


def group_clients(clients) -> list:
    """Partition clients into ClientGroups of one `_group_key` and at most
    GROUP_ROWS members, in list order; returns each client's (group, row)."""
    keyed = {}
    for c, client in enumerate(clients):
        keyed.setdefault(_group_key(client), []).append(c)
    place = [None] * len(clients)
    for alike in keyed.values():
        for lo in range(0, len(alike), GROUP_ROWS):
            chunk = alike[lo:lo + GROUP_ROWS]
            group = ClientGroup([clients[c] for c in chunk])
            for row, c in enumerate(chunk):
                place[c] = (group, row)
    return place


def build_client(client_id: int, train: LabeledDataset, *, input_dim: int,
                 training: TrainingParams = TrainingParams(), seed: int = 0) -> ClientState:
    """Assemble a freshly initialized client for a training set."""
    tr = training
    n_classes = train.n_classes
    base = (seed, client_id)
    lc = channel(input_dim, tr.local_hidden, tr.emb_dim, (*base, 1))
    # Common init across clients: parameter averaging needs aligned neurons.
    fc = channel(input_dim, tr.fed_hidden, tr.emb_dim, (seed, 2))
    h1 = linear_head(tr.emb_dim, n_classes, (*base, 3))
    fu = fusion_head(2 * tr.emb_dim, tr.fuse_dim, (*base, 4))
    h2 = linear_head(tr.fuse_dim, n_classes, (*base, 5))
    # Centers start at each class's initial embedding mean, not at zero:
    # a zero init drags every embedding toward the origin early in training.
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
