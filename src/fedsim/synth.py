"""Synthetic non-IID open-set datasets.

Each client draws Gaussian clusters around seeded class prototypes, then
pushes them through a client-specific transform (rotation + offset + noise
scale) so clients differ systematically. Train and test identities are
disjoint per client.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, ShapeError, per_client, real, whole
from .nn import seeded

PROTO_SCALE = 2.0
PROBE_POOL_SIZE = 128   # rows of the server's probe source


@dataclass(frozen=True)
class SynthSpec:
    n_clients: int = 4
    classes_per_client: object = 20     # scalar or per-client sequence
    samples_per_class: object = 6
    input_dim: int = 32
    latent_dim: int = 8                 # prototypes live in a shared subspace
    rotation_deg: object = None         # default: evenly spread over clients
    offset_scale: object = 1.0
    noise_scale: object = 0.8
    seed: int = 0
    open_set_split: float = 0.8

    def __post_init__(self):
        for name, least in (("n_clients", 1), ("seed", 0), ("input_dim", 1), ("latent_dim", 1)):
            object.__setattr__(self, name, whole(name, getattr(self, name), least))
        object.__setattr__(self, "open_set_split", real("open_set_split", self.open_set_split,
                                                        0, 1, closed=False))
        if self.latent_dim > self.input_dim:
            raise ConfigError("latent_dim must be in [1, input_dim]")
        n = self.n_clients
        if self.rotation_deg is None:
            object.__setattr__(self, "rotation_deg", tuple(c * 180.0 / n for c in range(n)))
        for name, least in (("classes_per_client", 0), ("samples_per_class", 2),
                            ("rotation_deg", None), ("offset_scale", None),
                            ("noise_scale", None)):
            object.__setattr__(self, name, per_client(getattr(self, name), n, name, least))
        for c in range(n):
            k_train, k_test = self.class_split(c)
            if k_train < 2 or k_test < 1:
                raise ConfigError("split leaves too few train or test classes")

    def class_split(self, c) -> tuple:
        """(train, test) identity counts of client c."""
        k_train = math.floor(self.classes_per_client[c] * self.open_set_split)
        return k_train, self.classes_per_client[c] - k_train


@dataclass
class LabeledDataset:
    """Inputs and labels, validated once here so training never rescans them."""

    inputs: np.ndarray   # (n, dim) finite float64
    labels: np.ndarray   # (n,) integers, dense 0..K-1 within role
    role: str            # "train" or "test"

    def __post_init__(self):
        inputs, labels = self.inputs, self.labels
        if not isinstance(inputs, np.ndarray) or inputs.ndim != 2:
            raise ShapeError("dataset inputs must be a 2-D array")
        if inputs.dtype != np.float64:
            raise DomainError(f"dataset inputs must be float64, got {inputs.dtype}")
        if not isinstance(labels, np.ndarray) or labels.shape != (inputs.shape[0],):
            raise ShapeError("dataset needs a 1-D label array with one label per input")
        if labels.dtype.kind not in "iu":
            raise DomainError(f"dataset labels must be integers, got {labels.dtype}")
        if labels.size and labels.min() < 0:
            raise DomainError("dataset labels must be >= 0")
        if not np.isfinite(inputs).all():
            raise DomainError("dataset contains non-finite inputs")

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0


def rotation_matrix(dim: int, angle_deg: float) -> np.ndarray:
    """Block-diagonal planar rotation on consecutive coordinate pairs."""
    theta = math.radians(angle_deg)
    c, s = math.cos(theta), math.sin(theta)
    mat = np.eye(dim)
    i = np.arange(0, dim - 1, 2)   # the first coordinate of each pair
    mat[i, i] = mat[i + 1, i + 1] = c
    mat[i, i + 1], mat[i + 1, i] = -s, s
    return mat


def generate(spec: SynthSpec):
    """Build per-client (train, test) datasets plus the server probe source.

    Returns (clients, probe_source) where clients is a list of
    (train LabeledDataset, test LabeledDataset).
    """
    dim = spec.input_dim
    # Shared prototype subspace: the structure federation can exploit.
    basis_rng = seeded((spec.seed, 101))
    basis, _ = np.linalg.qr(basis_rng.standard_normal((dim, spec.latent_dim)))

    clients = []
    for c in range(spec.n_clients):
        k = spec.classes_per_client[c]
        m = spec.samples_per_class[c]
        rng = seeded((spec.seed, c))
        protos = PROTO_SCALE * rng.standard_normal((k, spec.latent_dim)) @ basis.T
        raw = protos[:, None, :] + spec.noise_scale[c] * rng.standard_normal((k, m, dim))

        rot = rotation_matrix(dim, spec.rotation_deg[c])
        offset_rng = seeded((spec.seed, c, 7))
        offset = spec.offset_scale[c] * offset_rng.standard_normal(dim)
        transformed = raw.reshape(-1, dim) @ rot.T + offset

        labels = np.repeat(np.arange(k), m)
        k_train, _ = spec.class_split(c)
        train_mask = labels < k_train
        train = LabeledDataset(transformed[train_mask], labels[train_mask], "train")
        test = LabeledDataset(transformed[~train_mask], labels[~train_mask] - k_train, "test")
        clients.append((train, test))

    probe_rng = seeded((spec.seed, 999))
    latent = probe_rng.standard_normal((PROBE_POOL_SIZE, spec.latent_dim))
    probe_source = PROTO_SCALE * latent @ basis.T
    return clients, probe_source
