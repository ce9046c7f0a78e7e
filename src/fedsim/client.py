"""Client lifecycle: full-model local training, upload of the federated
channel, async training of the local channel while waiting, and adoption of
the returned personalized parameters."""

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DivergenceError, DomainError, ProtocolError, ShapeError
from .losses import (CenterBank, LossWeights, center_loss_grad,
                     cross_entropy_batch, fv_cos_batch, total_loss, update_centers)
from .nn import (MLP, backward_batch, channel, forward_batch, fusion_head,
                 linear_head)
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
        if not (self.lr >= 0 and self.center_lr >= 0):
            raise ConfigError("lr and center_lr must be >= 0")
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

    Returns (loss, grads dict, fused embeddings).
    """
    f_p, cache_p = forward_batch(local_channel, x_batch)
    f_g, cache_g = forward_batch(fed_channel, x_batch)
    fused_in = np.concatenate([f_p, f_g], axis=1)
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
    dfp = dfused[:, :emb_l] + weights.alpha1 * dfp_fv
    dfg = dfused[:, emb_l:] + weights.alpha1 * dfg_fv
    dp_local, _ = backward_batch(local_channel, cache_p, dfp)
    dp_fed, _ = backward_batch(fed_channel, cache_g, dfg)
    grads = {"local": dp_local, "fed": dp_fed, "fusion": dp_fusion, "head2": dp_head2}
    return loss, grads, z


def async_loss_and_grads(local_channel, head1, x_batch, y_batch):
    """Cross-entropy loss through the local channel and its own classifier."""
    f_p, cache_p = forward_batch(local_channel, x_batch)
    logits, cache_h = forward_batch(head1, f_p)
    loss, dlogits = cross_entropy_batch(logits, y_batch)
    dp_head1, dfp = backward_batch(head1, cache_h, dlogits)
    dp_local, _ = backward_batch(local_channel, cache_p, dfp)
    return loss, {"local": dp_local, "head1": dp_head1}


def fused_embeddings(local_channel, fed_channel, fusion, inputs):
    """(B, fuse_dim) fused representations of a (B, input_dim) batch."""
    f_p, _ = forward_batch(local_channel, inputs)
    f_g, _ = forward_batch(fed_channel, inputs)
    z, _ = forward_batch(fusion, np.concatenate([f_p, f_g], axis=1))
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

    def _minibatches(self, rng):
        n = self.dataset.labels.size
        order = rng.permutation(n)
        for start in range(0, n, self.batch_size):
            idx = order[start : start + self.batch_size]
            yield self.dataset.inputs[idx], self.dataset.labels[idx]

    def n_batches(self) -> int:
        n = self.dataset.labels.size
        return -(-n // self.batch_size)

    def local_train_round(self) -> UploadMessage:
        if self.phase is not Phase.LOCAL_TRAINING:
            raise ProtocolError(f"local_train_round in phase {self.phase}")
        self.last_epoch_losses = []
        for _ in range(self.local_epochs):
            batch_losses = []
            for b_idx, (xb, yb) in enumerate(self._minibatches(self._batch_rng)):
                loss, _, z = self._train_step(
                    "local", b_idx, local_loss_and_grads, self.local_channel,
                    self.fed_channel, self.fusion, self.head2, self.center_bank,
                    xb, yb, self.loss_weights)
                if self.loss_weights.alpha3 > 0:
                    update_centers(self.center_bank, z, yb)
                batch_losses.append(loss)
            self.last_epoch_losses.append(batch_losses)
        self.phase = Phase.WAITING
        return UploadMessage(self.client_id, self.fed_round, self.fed_channel.params.copy())

    def async_train_step(self) -> float:
        """One local-channel step on the waiting-time classification loss."""
        if self.phase is not Phase.WAITING:
            raise ProtocolError(f"async_train_step in phase {self.phase}")
        n = self.dataset.labels.size
        idx = self._async_rng.choice(n, size=min(self.batch_size, n), replace=False)
        return self._train_step("async", None, async_loss_and_grads, self.local_channel,
                                self.head1, self.dataset.inputs[idx],
                                self.dataset.labels[idx])[0]

    def _train_step(self, phase: str, batch_index, loss_and_grads, *args):
        """SGD on loss_and_grads(*args) -> (loss, grads, ...), which it returns.

        Each part in grads is updated in place (`nn.sgd_step`'s arithmetic) in
        the dict's order; a non-finite loss or part stops at the step that made it.
        """
        try:
            out = loss_and_grads(*args)
        except DomainError as exc:
            # non-finite activations from exploded parameters
            raise self._diverged(f"{phase} training diverged: {exc}",
                                 phase, batch_index) from exc
        loss, grads = out[0], out[1]
        if not np.isfinite(loss):
            raise self._diverged(f"non-finite {phase} training loss", phase, batch_index)
        for part, grad in grads.items():
            params = getattr(self, _PART_MODELS[part]).params
            params -= self.lr * grad
            if not np.isfinite(params).all():
                raise self._diverged(f"non-finite {phase} training parameters",
                                     phase, batch_index)
        return out

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
        # a copy: in-place training must never write into the sender's array
        self.fed_channel.params = new_fed_params.copy()
        self.fed_round += 1
        self.phase = Phase.LOCAL_TRAINING

    def finish(self) -> None:
        self.phase = Phase.IDLE

    # -- inference --------------------------------------------------------

    def extract_embeddings(self, inputs: np.ndarray) -> np.ndarray:
        """Fused pre-classifier representations used for open-set matching."""
        return fused_embeddings(self.local_channel, self.fed_channel, self.fusion, inputs)


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
