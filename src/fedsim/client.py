"""Client lifecycle: full-model local training, upload of the federated
channel, async training of the local channel while waiting, and adoption of
the returned personalized parameters.

Clients train in groups: a `ClientGroup` stacks the trained parts, center
banks and training sets of clients that share every shape and training
setting, and each member's own arrays are row views of those stacks, built
there by `build_clients`. Every step is one kernel call with a leading group
axis; a member stepped alone is a group of one over its own arrays, bit for
bit its row of the group.
"""

import enum
from dataclasses import dataclass, field
from operator import is_not

import numpy as np

from .errors import DivergenceError, DomainError, ProtocolError, ShapeError, real, whole
from .losses import (CenterBank, LossWeights, _class_means, center_loss_grad,
                     cross_entropy_batch, fv_cos_batch, total_loss, update_centers)
from .nn import GROUP_ROWS, MLP, backward_batch, forward_batch, init_params, param_count, seeded
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
        for name in ("lr", "center_lr", "alpha1", "alpha2", "alpha3"):
            object.__setattr__(self, name, real(name, getattr(self, name), 0))
        for name in ("epochs", "batch", "local_hidden", "fed_hidden", "emb_dim", "fuse_dim"):
            object.__setattr__(self, name, whole(name, getattr(self, name), 1))
        self.loss_weights()  # checks that an alpha is positive

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


def stacked_parts(clients, copy=True):
    """The local channel, federated channel and fusion of each GROUP_ROWS clients as (G, L) stacks,
    made as read: copies, or without `copy` a group's own models if a block is its members."""
    for lo in range(0, len(clients), GROUP_ROWS):
        block, group = clients[lo:lo + GROUP_ROWS], None if copy else clients[lo].group
        yield [group.models[attr] if group is not None and group.members == block
               else MLP(getattr(block[0], attr).sizes, getattr(block[0], attr).out_act,
                        np.array([getattr(c, attr).params for c in block]))
               for attr in PARTS[:3]]


def stacked_embeddings(blocks, inputs) -> np.ndarray:
    """(G, B, fuse_dim) fused embeddings of (G, B, input_dim) inputs, a forward per block of
    `stacked_parts(clients)`: row g is bit for bit `clients[g].extract_embeddings(inputs[g])`."""
    return np.concatenate([fused_embeddings(*parts, inputs[lo:lo + GROUP_ROWS])
                           for lo, parts in zip(range(0, len(inputs), GROUP_ROWS), blocks)])


# the ClientState fields of the trained parts, which also key their gradients
PARTS = ("local_channel", "fed_channel", "fusion", "head1", "head2")


@dataclass(eq=False)   # identity: groups compare member lists, whose fields hold arrays
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
    group: object = field(default=None, repr=False)   # the ClientGroup it was built or stacked in

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

    def finish(self) -> None:   # out of its group too: a finished run needs no cycle collector
        self.phase, self.group = Phase.IDLE, None

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
    """The arrays of a client that its group stacks, in a fixed order: `PARTS`, then these."""
    return (c.local_channel.params, c.fed_channel.params, c.fusion.params, c.head1.params,
            c.head2.params, c.center_bank.centers, c.dataset.inputs, c.dataset.labels)


def _chunks(keys) -> list:
    """The indices of equal keys in chunks of at most GROUP_ROWS, in list order: the groups."""
    alike = {}
    for i, key in enumerate(keys):
        alike.setdefault(key, []).append(i)
    return [ids[lo:lo + GROUP_ROWS] for ids in alike.values()
            for lo in range(0, len(ids), GROUP_ROWS)]


class ClientGroup:
    """Clients of one `_group_key`, each step one kernel call with a group axis.

    It holds one (G, L) model per trained part, a (G, K, d) center bank and (G, n, ·)
    training sets whose rows are its members' `MLP.params`, centers and dataset arrays:
    the `stacks` (`_own_arrays` order) `build_clients` made them in, or a stack of two
    loose members or more, rebound to its rows. A group of one views its member's own
    arrays with a leading axis of 1 and steps itself. A member of a larger group stepped
    alone is stepped by its own group of one, built once and kept, bit for bit its row
    of the full step; two or more step in one call, the other rows unchanged, when over
    a third of the stack is due (`_steps`). A member that rebinds one of its arrays or
    changes one of its `_settings` is refused at its next step. Members keep their own
    learning rate and RNG streams."""

    def __init__(self, members, stacks=None):
        self.members = list(members)
        first = self.members[0]
        if len(set(map(_group_key, self.members))) > 1:
            raise ShapeError("clients of one group must share shapes and settings")
        self.settings = _settings(first)
        self.local_epochs, self.batch_size, self.loss_weights, bank_lr = self.settings
        self.n_samples = first.dataset.labels.size
        owner = stacks is not None or len(self.members) > 1
        *parts, centers, self.inputs, self.labels = stacks or [
            np.stack(arrays) if owner else arrays[0][None]
            for arrays in zip(*map(_own_arrays, self.members))]
        self.models = {attr: MLP(getattr(first, attr).sizes, getattr(first, attr).out_act, p)
                       for attr, p in zip(PARTS, parts)}
        self.bank = CenterBank(centers, bank_lr)
        self.bank.centers = centers   # the bank copies what it is given
        for g, c in enumerate(self.members if owner else ()):   # a group of one only views
            c.group = self
            if stacks is None:   # new part models: views a forward cached would pin old arrays
                for attr, model in self.models.items():
                    setattr(c, attr, model.row(g))
                c.center_bank.centers, c.dataset.inputs, c.dataset.labels = (
                    centers[g], self.inputs[g], self.labels[g])
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
        order = np.zeros((len(self.members), n), dtype=np.int64)   # rows not stepped: sample 0
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
        """Step the members in `rows` in one stacked call if two or more and over a
        third of the stack are due, else each by its own group of one, built once
        and kept. A stacked step costs about the same however few rows are due
        (timeit, 16 members: 2 of them took 3x longer stacked than alone, 6 as
        long, 12 half as long in a local step; an async step breaks even at 8)."""
        if len(rows) > 1 and 3 * len(rows) > len(self.members):
            return self._step(rows, phase, batch_index, idx, losses, dead, lr)
        for g in rows:
            if len(self.members) > 1 and g not in self._alone:
                self._alone[g] = ClientGroup([self.members[g]])
            self._alone.get(g, self)._step((g,), phase, batch_index, idx[g:g + 1],
                                           losses, dead, lr[g:g + 1])

    # the callers ignore overflow and invalid results: the finite checks below
    # report them once, as a DivergenceError, where numpy would warn each time
    def _step(self, rows, phase, batch_index, idx, losses, dead, lr):
        """One SGD step of the stack, member i on its training rows idx[i] at lr[i],
        which updates only the parts and centers of the members in `rows` (not at
        lr = 0: -0.0 - -0.0 is +0.0). Each appends its loss to losses[row]; one
        whose loss or an updated part is non-finite gets its first error in
        dead[row], as a step of it alone would. A `DomainError` is raised before
        any update; one that names a row, as that member's DivergenceError."""
        models, bank = self.models, self.bank
        stack = len(self.members)
        due = True if len(rows) == stack else np.bincount(rows, minlength=stack)[:, None] > 0
        at = idx + self._row_offset
        xb, yb = self._flat_inputs.take(at, axis=0), self._flat_labels.take(at)
        try:
            if phase == "local":
                out = local_loss_and_grads(
                    models["local_channel"], models["fed_channel"], models["fusion"],
                    models["head2"], bank, xb, yb, self.loss_weights)
            else:
                out = async_loss_and_grads(models["local_channel"], models["head1"], xb, yb)
        except DomainError as exc:   # a row to blame is its member's divergence
            raise exc if exc.row is None else self.members[exc.row]._diverged(
                str(exc), phase, batch_index)
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
            kept = None if due is True else bank.centers.copy()
            update_centers(bank, out[2], yb)
            if kept is not None:   # the members not in `rows` keep their centers
                np.copyto(bank.centers, kept, where=~due[..., None])
        for row, value in zip(rows, (loss if due is True else loss[list(rows)]).tolist()):
            losses[row].append(value)


def group_clients(clients) -> list:
    """Partition clients into ClientGroups of one `_group_key` and at most GROUP_ROWS
    members, in list order; a chunk that is a group's members in row order (as
    `build_clients` made them) keeps that group. Returns each client's (group, members)."""
    place = [None] * len(clients)
    for chunk in _chunks(map(_group_key, clients)):
        members, group = [clients[c] for c in chunk], clients[chunk[0]].group
        if group is None or group.members != members:
            group = ClientGroup(members)
        for c in chunk:
            place[c] = (group, chunk)
    return place


def build_clients(ids, trains, *, input_dim: int, training: TrainingParams = TrainingParams(),
                  seed: int = 0) -> list:
    """Fresh clients as the rows of their groups (`group_clients`' chunks, by class count and set
    shape), bit for bit each built alone: parts from own seeds, but the federated channel from
    the run's common init (averaging needs aligned neurons), and centers at class means of one
    forward of a chunk (a zero init drags them to the origin)."""
    tr, ids, trains, weights = training, list(ids), list(trains), training.loss_weights()
    fed_sizes = (input_dim, tr.fed_hidden, tr.emb_dim)
    fed, clients = init_params(fed_sizes, (seed, 2)), [None] * len(ids)
    for chunk in _chunks((t.n_classes, t.inputs.shape) for t in trains):
        k, g = trains[chunk[0]].n_classes, len(chunk)
        models = {"fed_channel": MLP(fed_sizes, "linear", np.tile(fed, (g, 1)))}
        for attr, sizes, tag in (("local_channel", (input_dim, tr.local_hidden, tr.emb_dim), 1),
                                 ("head1", (tr.emb_dim, k), 3), ("head2", (tr.fuse_dim, k), 5),
                                 ("fusion", (2 * tr.emb_dim, tr.fuse_dim), 4)):
            models[attr] = MLP(sizes, "tanh" if attr == "fusion" else "linear",
                               np.empty((g, param_count(sizes))))
            for row, c in zip(models[attr].params, chunk):
                init_params(sizes, (seed, ids[c], tag), out=row)
        inputs, labels = map(np.stack, zip(*((trains[c].inputs, trains[c].labels) for c in chunk)))
        z = fused_embeddings(*(models[attr] for attr in PARTS[:3]), inputs)
        rows = (labels + k * np.arange(g)[:, None]).ravel().astype(np.intp)
        touched, means = _class_means(z, rows, g * k)
        if touched.size < g * k:   # each top label has samples: a missing class is below it
            c, cls = divmod(int(np.argmax(touched != np.arange(touched.size))), k)
            raise DomainError(f"client {ids[chunk[c]]} has no training sample of class {cls}")
        centers = means.reshape(g, k, -1)
        for row, c in enumerate(chunk):
            clients[c] = ClientState(
                ids[c], **{attr: model.row(row) for attr, model in models.items()},
                center_bank=CenterBank(centers[row], tr.center_lr),
                dataset=LabeledDataset(inputs[row], labels[row], trains[c].role),
                loss_weights=weights, lr=tr.lr, local_epochs=tr.epochs, batch_size=tr.batch,
                _batch_rng=seeded((seed, ids[c], 11)), _async_rng=seeded((seed, ids[c], 13)))
            clients[c].center_bank.centers = centers[row]   # the bank copies what it is given
        ClientGroup([clients[c] for c in chunk],
                    [models[attr].params for attr in PARTS] + [centers, inputs, labels])
    return clients


def build_client(client_id: int, train: LabeledDataset, **settings) -> ClientState:
    """A freshly initialized client for a training set: `build_clients` of one."""
    return build_clients([client_id], [train], **settings)[0]
