"""Small fully connected networks with hand-written analytic gradients.

Everything operates on flat float64 parameter vectors so that model state
can be uploaded, aggregated, and optimized as plain arrays. A model may also
hold a (G, L) stack of G such vectors; the kernels then take a leading group
axis and compute each row exactly as a one-vector model would.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ShapeError


def param_count(sizes) -> int:
    """Number of parameters (weights + biases) for layer widths `sizes`."""
    return sum(sizes[i + 1] * sizes[i] + sizes[i + 1] for i in range(len(sizes) - 1))


def init_params(sizes, seed) -> np.ndarray:
    """Uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)] per layer."""
    rng = np.random.default_rng(seed)
    chunks = []
    for i in range(len(sizes) - 1):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        bound = 1.0 / np.sqrt(fan_in)
        chunks.append(rng.uniform(-bound, bound, size=fan_out * fan_in + fan_out))
    return np.concatenate(chunks)


@dataclass
class MLP:
    """Fully connected net: tanh hidden layers, configurable output activation.

    A channel is an MLP with one hidden layer; a linear head is an MLP with
    no hidden layer; the fusion head is a single layer with tanh output.
    """

    sizes: tuple
    out_act: str = "linear"  # "linear" or "tanh"
    params: np.ndarray = field(default=None)
    # (w_lo, b_lo, b_hi) slice offsets of each layer in the flat vector
    _offsets: tuple = field(default=(), init=False, repr=False, compare=False)
    # cached (W, b) views and the params array they view
    _views: tuple = field(default=(), init=False, repr=False, compare=False)
    _views_of: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.sizes = tuple(int(s) for s in self.sizes)
        if len(self.sizes) < 2 or any(s < 1 for s in self.sizes):
            raise ShapeError(f"invalid layer sizes {self.sizes}")
        if self.out_act not in ("linear", "tanh"):
            raise ShapeError(f"unknown output activation {self.out_act!r}")
        if self.params is None:
            self.params = np.zeros(param_count(self.sizes))
        self.params = np.asarray(self.params, dtype=np.float64)
        count = param_count(self.sizes)
        if self.params.ndim not in (1, 2) or self.params.shape[-1] != count:
            raise ShapeError(f"params shape {self.params.shape} != ([G,] {count})")
        offsets, off = [], 0
        for fan_in, fan_out in zip(self.sizes, self.sizes[1:]):
            b_lo = off + fan_out * fan_in
            offsets.append((off, b_lo, b_lo + fan_out))
            off = b_lo + fan_out
        self._offsets = tuple(offsets)

    @property
    def in_dim(self) -> int:
        return self.sizes[0]

    @property
    def out_dim(self) -> int:
        return self.sizes[-1]

    def layers(self) -> tuple:
        """(W, b) views into the flat parameter vector, one pair per layer.

        W is (out, in) and b is (1, out); a (G, L) stack gives (G, out, in)
        and (G, 1, out). The views are cached and rebuilt when `params` is
        rebound; in-place updates of `params` show through them.
        """
        if self._views_of is not self.params:
            p = self.params
            lead = p.shape[:-1]
            self._views = tuple(
                (p[..., w_lo:b_lo].reshape(*lead, fan_out, fan_in), p[..., None, b_lo:b_hi])
                for (w_lo, b_lo, b_hi), fan_in, fan_out
                in zip(self._offsets, self.sizes, self.sizes[1:]))
            self._views_of = p
        return self._views

    def clone(self) -> "MLP":
        return MLP(self.sizes, self.out_act, self.params.copy())


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


def forward_batch(model: MLP, x: np.ndarray):
    """Forward pass on a (B, in_dim) batch; returns (output, cache).

    A (G, L) model takes a (G, B, in_dim) batch, row g through model row g.
    Inputs are not scanned for non-finite values: datasets are validated
    when built and parameters after every update.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2 or x.shape[:-2] != model.params.shape[:-1] or x.shape[-1] != model.in_dim:
        raise ShapeError(f"input shape {x.shape} incompatible with in_dim {model.in_dim}"
                         f" and params {model.params.shape}")
    acts = [x]
    h = x
    layers = model.layers()
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        z = h @ w.swapaxes(-1, -2)
        z += b
        h = np.tanh(z, out=z) if i < last or model.out_act == "tanh" else z
        acts.append(h)
    return h, acts


def backward_batch(model: MLP, cache, dy: np.ndarray, input_grad: bool = True):
    """Backprop an upstream gradient through the net.

    Returns (dparams, dx): gradient w.r.t. the flat parameter vector and
    w.r.t. the batch input, each with the model's group axis if it has one.
    With input_grad=False, dx is None and its matmul is skipped.
    """
    dy = np.asarray(dy, dtype=np.float64)
    if dy.shape != cache[-1].shape:
        raise ShapeError(f"upstream gradient shape {dy.shape} != output {cache[-1].shape}")
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
        # splitting the contiguous last axis: a view, never a copy
        np.matmul(grad.swapaxes(-1, -2), cache[i],
                  out=dparams[..., w_lo:b_lo].reshape(w.shape))
        np.add.reduce(grad, axis=-2, out=dparams[..., b_lo:b_hi])
        grad = grad @ w if i or input_grad else None
    return dparams, grad


def sgd_step(params: np.ndarray, grads: np.ndarray, lr: float) -> np.ndarray:
    """One plain gradient step: params - lr * grads."""
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape:
        raise ShapeError(f"params shape {params.shape} != grads shape {grads.shape}")
    if lr < 0:
        raise DomainError("learning rate must be nonnegative")
    return params - lr * grads
