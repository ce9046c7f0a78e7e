"""Exception hierarchy shared across the package."""


class FedSimError(Exception):
    """Base class for all package errors."""


class ShapeError(FedSimError):
    """Dimension or length mismatch between arrays that must align."""


class DomainError(FedSimError):
    """Input is outside the mathematical domain of an operation."""


class ConfigError(FedSimError):
    """Invalid or inconsistent configuration."""


class ProtocolError(FedSimError):
    """A client/server message violates the round protocol."""


class StaleMessageError(ProtocolError):
    """Message carries a round number older than the server's round."""


class DivergenceError(FedSimError):
    """Training produced a non-finite loss or non-finite parameters.

    phase names where it was caught: "local" or "async" (a client's own
    training step), "upload" (the server's barrier) or "adopt" (a client
    receiving its dispatched model).
    """

    def __init__(self, message, round_index=None, batch_index=None,
                 client_id=None, phase=None):
        super().__init__(message)
        self.round_index = round_index
        self.batch_index = batch_index
        self.client_id = client_id
        self.phase = phase
