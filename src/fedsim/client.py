"""Client lifecycle: full-model local training, upload of the federated
channel, async training of the local channel while waiting, and adoption of
the returned personalized parameters.

Clients train in groups: a `ClientGroup` stacks the trained parts, center
banks and training sets of clients that share every shape and training
setting, and each member's own arrays are row views of those stacks. Every
step is one kernel call with a leading group axis; a member stepped alone
is a group of one over its own arrays, bit for bit its row of the group.
"""

import enum
import functools
from dataclasses import dataclass, field
from operator import is_not

import numpy as np

from .errors import ConfigError, DivergenceError, DomainError, ProtocolError, ShapeError
from .losses import (CenterBank, LossWeights, _class_means, center_loss_grad,
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

    Returns (loss, grads keyed by `PARTS` name, fused embeddings). Group
    models and bank take (G, B, ·) batches and give a (G,) loss and (G, L)
    gradients.
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
    grads = {"local_channel": dp_local, "fed_channel": dp_fed, "fusion": dp_fusion,
             "head2": dp_head2}
    return loss, grads, z


def async_loss_and_grads(local_channel, head1, x_batch, y_batch):
    """Cross-entropy loss through the local channel and its own classifier."""
    f_p, cache_p = forward_batch(local_channel, x_batch)
    logits, cache_h = forward_batch(head1, f_p)
    loss, dlogits = cross_entropy_batch(logits, y_batch)
    dp_head1, dfp = backward_batch(head1, cache_h, dlogits)
    dp_local, _ = backward_batch(local_channel, cache_p, dfp, input_grad=False)
    return loss, {"local_channel": dp_local, "head1": dp_head1}


def fused_embeddings(local_channel, fed_channel, fusion, inputs):
    """(B, fuse_dim) fused embeddings of a (B, input_dim) batch; no cache outlives its read."""
    f_p = forward_batch(local_channel, inputs)[0]
    f_g = forward_batch(fed_channel, inputs)[0]
    return forward_batch(fusion, np.concatenate([f_p, f_g], axis=-1))[0]


def stacked_embeddings(clients, inputs) -> np.ndarray:
    """(G, B, fuse_dim) fused embeddings of (G, B, input_dim) inputs, GROUP_ROWS clients per
    stacked forward: row g is bit for bit `clients[g].extract_embeddings(inputs[g])`."""
    embs = np.empty((*inputs.shape[:2], clients[0].fusion.out_dim))
    for lo in range(0, len(clients), GROUP_ROWS):
        block = clients[lo:lo + GROUP_ROWS]   # its copied parts go with its forward
        embs[lo:lo + GROUP_ROWS] = fused_embeddings(*[
            MLP(getattr(block[0], attr).sizes, getattr(block[0], attr).out_act,
                np.array([getattr(c, attr).params for c in block]))
            for attr in ("local_channel", "fed_channel", "fusion")], inputs[lo:lo + GROUP_ROWS])
    return embs


# the ClientState fields of the trained parts, which also key their gradients
PARTS = ("local_channel", "fed_channel", "fusion", "head1", "head2")


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
        return _raise_diverged(ClientGroup([self]).async_steps({0: 1})[0][0])

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


def _settings(c: ClientState) -> tuple:
    """The training settings a group reads from its first member: all but lr."""
    return c.local_epochs, c.batch_size, c.loss_weights, c.center_bank.lr


def _group_key(client: ClientState) -> tuple:
    """What clients of one group must share: every array shape and `_settings`;
    the learning rate is read per client at each step."""
    return (tuple((getattr(client, attr).sizes, getattr(client, attr).out_act)
                  for attr in PARTS),
            client.center_bank.centers.shape, client.dataset.inputs.shape,
            _settings(client))


def _own_arrays(c: ClientState) -> tuple:
    """The arrays of a client that its group stacks, in a fixed order."""
    return (c.local_channel.params, c.fed_channel.params, c.fusion.params, c.head1.params,
            c.head2.params, c.center_bank.centers, c.dataset.inputs, c.dataset.labels)


class ClientGroup:
    """Clients of one `_group_key`, each step one kernel call with a group axis.

    Two members or more are stacked: one (G, L) model per trained part, one
    (G, K, d) center bank and (G, n, ·) training sets, of which each member's
    `MLP.params`, `CenterBank.centers` and dataset arrays become row views. A
    group of one views its member's own arrays with a leading axis of 1 and
    steps itself. A member of a larger group stepped alone is stepped by its
    own group of one, built once and kept, bit for bit its row of the full
    step. A member that rebinds one of
    its arrays or changes one of its `_settings` is refused at its next step.
    Members keep their own learning rate and RNG streams."""

    def __init__(self, members):
        self.members = list(members)
        first = self.members[0]
        if any(_group_key(c) != _group_key(first) for c in self.members):
            raise ShapeError("clients of one group must share shapes and settings")
        self.settings = _settings(first)
        self.local_epochs, self.batch_size, self.loss_weights, bank_lr = self.settings
        self.n_samples = first.dataset.labels.size
        one = len(self.members) == 1
        stack = (lambda arrays: arrays[0][None]) if one else np.stack
        self.models = {attr: MLP(getattr(first, attr).sizes, getattr(first, attr).out_act,
                                 stack([getattr(c, attr).params for c in self.members]))
                       for attr in PARTS}
        centers = stack([c.center_bank.centers for c in self.members])
        self.bank = CenterBank(centers, bank_lr)
        self.bank.centers = centers   # the bank copies what it is given
        self.inputs = stack([c.dataset.inputs for c in self.members])
        self.labels = stack([c.dataset.labels for c in self.members])
        for g, c in enumerate(self.members if not one else ()):
            for attr, model in self.models.items():
                getattr(c, attr).params = model.params[g]
            c.center_bank.centers = self.bank.centers[g]
            c.dataset.inputs, c.dataset.labels = self.inputs[g], self.labels[g]
        self._rows = [_own_arrays(c) for c in self.members]
        self._alone = {}   # row -> that member's group of one
        # views of the (G, n, ·) sets as (G*n, ·) rows: sample i of member g is row g*n + i
        self._flat_inputs = self.inputs.reshape(-1, self.inputs.shape[-1])
        self._flat_labels = self.labels.reshape(-1)
        self._row_offset = np.arange(0, self.labels.size, self.n_samples)[:, None]

    def _check(self, rows, phase, step):
        for g in rows:
            c = self.members[g]
            if c.phase is not phase:
                raise ProtocolError(f"{step} in phase {c.phase}")
            if any(map(is_not, _own_arrays(c), self._rows[g])):
                raise ProtocolError(f"client {c.client_id} rebound an array of its group")
            if _settings(c) != self.settings:
                raise ProtocolError(f"client {c.client_id} changed a setting of its group")

    @np.errstate(over="ignore", invalid="ignore")   # see `_step`
    def local_rounds(self, rows) -> dict:
        """One local round of each member in `rows` (sorted row indices).

        Returns {row: the member's UploadMessage, or the DivergenceError that
        stopped its round}; the other members' rounds run to the end.
        """
        self._check(rows, Phase.LOCAL_TRAINING, "local_train_round")
        n, size = self.n_samples, self.batch_size
        order = np.empty((len(self.members), n), dtype=np.int64)
        lr = np.array([c.lr for c in self.members], dtype=np.float64)[:, None]
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
                            order[:, start:start + size], losses, dead, lr)
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

    @np.errstate(over="ignore", invalid="ignore")   # see `_step`
    def async_steps(self, counts) -> dict:
        """counts[g] waiting-time steps of each member g (keys in row order); step j
        is one call over the members that take more than j, and draws only their
        batches. Returns {row: its losses, then the DivergenceError that stopped it}."""
        self._check(counts, Phase.WAITING, "async_train_step")
        n, size = self.n_samples, min(self.batch_size, self.n_samples)
        idx = np.zeros((len(self.members), size), dtype=np.int64)
        lr = np.array([c.lr for c in self.members], dtype=np.float64)[:, None]
        losses, dead = {g: [] for g in counts}, {}
        for j in range(max(counts.values(), default=0)):
            due = [g for g in counts if counts[g] > j and g not in dead]
            for g in due:
                idx[g] = self.members[g]._async_rng.choice(n, size=size, replace=False)
            self._steps(due, "async", None, idx, losses, dead, lr)
            for g in dead.keys() & due:
                losses[g][j:] = [dead[g]]   # in place of the loss of its last step
        return losses

    def _steps(self, rows, phase, batch_index, idx, losses, dead, lr):
        """Step the members in `rows` in one stacked call, or each as its own group
        of one: a lone member, or some of a local step (its center update takes
        the whole stack). The `DomainError` of a member alone is its DivergenceError."""
        if len(rows) > 1 and (len(rows) == len(self.members) or phase == "async"):
            try:
                return self._step(rows, phase, batch_index, idx, losses, dead, lr)
            except DomainError:
                pass   # non-finite activations from exploded parameters: find whose
        for g in rows:
            if len(self.members) > 1 and g not in self._alone:
                self._alone[g] = ClientGroup([self.members[g]])
            try:
                self._alone.get(g, self)._step((g,), phase, batch_index, idx[g:g + 1],
                                               losses, dead, lr[g:g + 1])
            except DomainError as exc:
                dead[g] = self.members[g]._diverged(
                    f"{phase} training diverged: {exc}", phase, batch_index)
                dead[g].__cause__ = exc

    # the callers ignore overflow and invalid results: the finite checks below
    # report them once, as a DivergenceError, where numpy would warn each time
    def _step(self, rows, phase, batch_index, idx, losses, dead, lr):
        """One SGD step of the stack, member i on its training rows idx[i] at lr[i],
        which updates only the members in `rows` (not at lr = 0: -0.0 - -0.0 is
        +0.0). Each appends its loss to losses[row]; one whose loss or an updated
        part is non-finite gets its first error in dead[row], as a step of it
        alone would raise. A `DomainError` is raised before any update."""
        models, bank = self.models, self.bank
        stack = len(self.members)
        due = True if len(rows) == stack else np.bincount(rows, minlength=stack)[:, None] > 0
        at = idx + self._row_offset
        xb, yb = self._flat_inputs.take(at, axis=0), self._flat_labels.take(at)
        if phase == "local":
            out = local_loss_and_grads(
                models["local_channel"], models["fed_channel"], models["fusion"],
                models["head2"], bank, xb, yb, self.loss_weights)
        else:
            out = async_loss_and_grads(models["local_channel"], models["head1"], xb, yb)
        loss, grads = out[0], out[1]
        finite = np.isfinite(loss).all()
        for part, grad in grads.items():
            params = models[part].params
            grad *= lr
            np.subtract(params, grad, out=params, where=due)
            finite &= np.isfinite(params).all()
        if not finite:
            # name the members: the loss first, then each part in update order
            ids = rows if due is True else range(stack)   # stack index -> row
            for what, bad in [("loss", ~np.isfinite(loss))] + [
                    ("parameters", ~np.isfinite(models[part].params).all(axis=-1))
                    for part in grads]:
                for i in np.flatnonzero(bad & np.ravel(due)):
                    dead.setdefault(ids[i], self.members[i]._diverged(
                        f"non-finite {phase} training {what}", phase, batch_index))
        if phase == "local" and self.loss_weights.alpha3 > 0:
            update_centers(bank, out[2], yb)
        for row, value in zip(rows, (loss if due is True else loss[list(rows)]).tolist()):
            losses[row].append(value)


def group_clients(clients) -> list:
    """Partition clients into ClientGroups of one `_group_key` and at most
    GROUP_ROWS members, in list order; returns each client's (group, members)."""
    keyed = {}
    for c, client in enumerate(clients):
        keyed.setdefault(_group_key(client), []).append(c)
    place = [None] * len(clients)
    for alike in keyed.values():
        for lo in range(0, len(alike), GROUP_ROWS):
            chunk = alike[lo:lo + GROUP_ROWS]
            group = ClientGroup([clients[c] for c in chunk])
            for c in chunk:
                place[c] = (group, chunk)
    return place


@functools.lru_cache(maxsize=1)   # the current run's init, read-only: clients copy it
def _fed_init(input_dim, fed_hidden, emb_dim, seed) -> np.ndarray:
    params = channel(input_dim, fed_hidden, emb_dim, (seed, 2)).params
    params.flags.writeable = False
    return params


def build_client(client_id: int, train: LabeledDataset, *, input_dim: int,
                 training: TrainingParams = TrainingParams(), seed: int = 0) -> ClientState:
    """Assemble a freshly initialized client for a training set."""
    tr = training
    n_classes = train.n_classes
    base = (seed, client_id)
    lc = channel(input_dim, tr.local_hidden, tr.emb_dim, (*base, 1))
    # Common init across clients: parameter averaging needs aligned neurons.
    fc_sizes = (input_dim, tr.fed_hidden, tr.emb_dim)
    fc = MLP(fc_sizes, "linear", _fed_init(*fc_sizes, seed).copy())
    h1 = linear_head(tr.emb_dim, n_classes, (*base, 3))
    fu = fusion_head(2 * tr.emb_dim, tr.fuse_dim, (*base, 4))
    h2 = linear_head(tr.fuse_dim, n_classes, (*base, 5))
    # Centers start at each class's initial embedding mean, not at zero:
    # a zero init drags every embedding toward the origin early in training.
    z = fused_embeddings(lc, fc, fu, train.inputs)
    touched, means = _class_means(z, train.labels.astype(np.intp, copy=False), n_classes)
    if touched.size < n_classes:   # the top label has samples: a missing class is below it
        raise DomainError(f"client {client_id} has no training sample of class "
                          f"{np.argmax(touched != np.arange(touched.size))}")
    return ClientState(
        client_id=client_id, local_channel=lc, fed_channel=fc, head1=h1, head2=h2, fusion=fu,
        center_bank=CenterBank(means, tr.center_lr), dataset=train,
        loss_weights=tr.loss_weights(), lr=tr.lr, local_epochs=tr.epochs, batch_size=tr.batch,
        _batch_rng=np.random.default_rng((*base, 11)),
        _async_rng=np.random.default_rng((*base, 13)))
