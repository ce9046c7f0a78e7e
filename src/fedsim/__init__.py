"""Deterministic simulator for personalized, asynchronous federated learning
with dual-channel client models and open-set verification metrics."""

__version__ = "0.1.0"

from .aggregation import (AggregationConfig, build_correlation_matrix,
                          correlation_degree, fedavg_aggregate, personalized_aggregate)
from .client import ClientState, Phase, UploadMessage, build_client
from .errors import (ConfigError, DivergenceError, DomainError, FedSimError,
                     ProtocolError, ShapeError, StaleMessageError)
from .experiment import ExperimentConfig, Toggles, TrainingParams, run_experiment
from .losses import CenterBank, LossWeights, total_loss, update_centers
from .metrics import MetricsRecord, ScoreSet, eer, operating_points, score_pairs, tar_at_far
from .nn import MLP, sgd_step
from .server import DispatchMessage, ServerState, Strategy, handle_upload, \
    load_probe_set, run_aggregation
from .simulation import SimConfig, TimelineLog, run_simulation
from .synth import LabeledDataset, SynthSpec, generate
