"""Server runtime: collects uploads, picks the mixing weights for the round's
strategy, and dispatches one mixed parameter vector per client. The uploads are
stacked once; the probes go through them in stacked forwards and the dispatches
are the rows of one `mix`, each with the bits of a per-upload pass."""

import enum
from dataclasses import dataclass, field

import numpy as np

from .aggregation import (AggregationConfig, build_correlation_matrix,
                          correlation_weights, mix)
from .errors import (ConfigError, DivergenceError, ProtocolError, ShapeError,
                     StaleMessageError)
from .client import UploadMessage
from .nn import MLP


class Strategy(enum.Enum):
    PERSONALIZED = "personalized"
    FEDAVG = "fedavg"


@dataclass(frozen=True)
class DispatchMessage:
    client_id: int
    round: int
    params: np.ndarray


@dataclass
class ServerState:
    expected_clients: int
    probes: np.ndarray                 # (T, in_dim)
    fed_arch: MLP                      # architecture template for uploads
    agg_cfg: AggregationConfig = field(default_factory=AggregationConfig)
    strategy: Strategy = Strategy.PERSONALIZED
    round: int = 0
    received: dict = field(default_factory=dict)  # client_id -> float64 params
    client_ids: tuple = None           # defaults to 0..expected_clients-1

    def __post_init__(self):
        if self.client_ids is None:
            self.client_ids = tuple(range(self.expected_clients))
        else:
            self.client_ids = tuple(sorted(self.client_ids))
        if not len(set(self.client_ids)) == len(self.client_ids) == self.expected_clients:
            raise ConfigError("client_ids must list one distinct id per expected client")

    @property
    def ready(self) -> bool:
        return len(self.received) == self.expected_clients


def handle_upload(server: ServerState, msg: UploadMessage) -> None:
    if msg.fed_round < server.round:
        raise StaleMessageError(
            f"upload for round {msg.fed_round}, server at round {server.round}")
    if msg.fed_round > server.round:
        raise ProtocolError(
            f"upload for future round {msg.fed_round}, server at round {server.round}")
    if msg.client_id in server.received:
        raise ProtocolError(f"duplicate upload from client {msg.client_id}")
    if msg.client_id not in server.client_ids:
        raise ProtocolError(f"unknown client {msg.client_id}")
    params = np.asarray(msg.params, dtype=np.float64)
    if params.shape != server.fed_arch.params.shape:
        raise ShapeError("uploaded parameters do not match federated architecture")
    if not np.all(np.isfinite(params)):
        raise DivergenceError("non-finite upload", round_index=msg.fed_round,
                              client_id=msg.client_id, phase="upload")
    server.received[msg.client_id] = params


def run_aggregation(server: ServerState):
    """Aggregate all uploads and emit one dispatch per client; advances the round."""
    if not server.ready:
        raise ProtocolError(
            f"aggregation requires {server.expected_clients} uploads, "
            f"have {len(server.received)}")
    n = server.expected_clients
    params = np.stack([server.received.pop(c) for c in server.client_ids])
    if server.strategy is Strategy.PERSONALIZED:
        uploads = MLP(server.fed_arch.sizes, server.fed_arch.out_act, params)
        corr = build_correlation_matrix(uploads, server.probes, server.agg_cfg.clamp_epsilon)
        weights, gamma = correlation_weights(corr), server.agg_cfg.gamma
    else:
        weights, gamma = np.full((n, n), 1.0 / n), 1.0
    outs = mix(params, weights, gamma)
    dispatches = [DispatchMessage(c, server.round, out)
                  for c, out in zip(server.client_ids, outs)]
    server.round += 1
    return dispatches


def load_probe_set(source: np.ndarray, t: int, seed) -> np.ndarray:
    """Deterministic seeded sample of T probe inputs from a source pool."""
    source = np.asarray(source, dtype=np.float64)
    if t < 1 or source.shape[0] < t:
        raise ConfigError(f"probe source has {source.shape[0]} items, need {t}")
    rng = np.random.default_rng(seed)
    idx = rng.choice(source.shape[0], size=t, replace=False)
    return source[np.sort(idx)].copy()
