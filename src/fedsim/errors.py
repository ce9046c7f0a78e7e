"""Exception hierarchy shared across the package, and the checks every settings
class runs on its counts and its real-valued settings."""

import numpy as np


class FedSimError(Exception):
    """Base class for all package errors."""


class ShapeError(FedSimError):
    """Dimension or length mismatch between arrays that must align."""


class DomainError(FedSimError):
    """Input is outside the mathematical domain of an operation."""
    row = None   # the offending row of a stacked input, where one is to blame


class ConfigError(FedSimError):
    """Invalid or inconsistent configuration."""


def whole(name, value, least=0) -> int:
    """`value` as an int >= least (a count or a number of ticks): 2.0 and np.int64(2)
    are 2; a bool, fraction, NaN, inf or non-number is refused."""
    try:
        if not isinstance(value, (bool, np.bool_)) and int(value) == value and value >= least:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{name} must be a whole number >= {least}, got {value!r}")


def real(name, value, low=-np.inf, high=np.inf, closed=True) -> float:
    """`value` as a finite float in [low, high], or in (low, high) if not `closed`: 1 and
    np.float32(0.5) are numbers; a bool, NaN, inf, string or other non-number is refused."""
    try:
        if not isinstance(value, (bool, np.bool_, str, bytes)) and np.isfinite(x := float(value)) \
                and (low <= x <= high if closed else low < x < high):
            return x
    except (TypeError, ValueError, OverflowError):
        pass
    interval = f"[{low}, {high}]" if closed else f"({low}, {high})"
    raise ConfigError(f"{name} must be a finite number in {interval}, got {value!r}")


def per_client(value, n_clients, name, least=None) -> tuple:
    """A scalar (a 0-d array too) broadcast to n_clients entries, or a sequence of that
    length, as a tuple: of `whole(name, entry, least)`, or without `least` of `real` entries."""
    value = tuple(value for _ in range(n_clients)) if np.ndim(value) == 0 else tuple(value)
    if len(value) != n_clients:
        raise ConfigError(f"{name} needs one value per client, got {len(value)}")
    return tuple(real(name, v) if least is None else whole(name, v, least) for v in value)


class ProtocolError(FedSimError):
    """A client/server message violates the round protocol."""


class StaleMessageError(ProtocolError):
    """Message carries a round number older than the server's round."""


class DivergenceError(FedSimError):
    """Training produced a non-finite loss or non-finite parameters.

    phase names where it was caught: "local" or "async" (a client's own
    training step), "upload" (the server's barrier), "aggregation" (its probe
    embeddings) or "adopt" (a client receiving its dispatched model).
    """

    def __init__(self, message, round_index=None, batch_index=None,
                 client_id=None, phase=None):
        super().__init__(message)
        self.round_index = round_index
        self.batch_index = batch_index
        self.client_id = client_id
        self.phase = phase
