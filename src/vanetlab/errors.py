"""Exception hierarchy shared across the package."""


class VanetlabError(Exception):
    """Base class for all package errors; the command line exits with
    the class's exit_code."""

    exit_code = 4


class DataError(VanetlabError):
    """Input data cannot support the requested work."""

    exit_code = 3


class SchedulingInPast(VanetlabError):
    """An event was scheduled before the current virtual clock."""


class UnknownNode(VanetlabError):
    """A node id is not registered with the engine."""


class InvalidSpec(VanetlabError):
    """A flow specification violates its constraints."""


class DuplicateTerminal(VanetlabError):
    """A packet observation out of order: a Tx that is not its flow's next
    seq, or an Rx/Drop terminal before the Tx or after another terminal."""


class TooFewRows(DataError):
    """Dataset too small for the requested split."""


class InsufficientClassCount(DataError):
    """Not enough rows of one class to balance; carries available counts."""

    def __init__(self, message: str, available_positive: int, available_negative: int):
        super().__init__(message)
        self.available_positive = available_positive
        self.available_negative = available_negative


class SchemaError(DataError):
    """A CSV table does not match the expected schema."""


class ConfigError(VanetlabError):
    """Scenario configuration is invalid or out of range."""

    exit_code = 2


class SingleClassTraining(DataError):
    """Training data contains only one class label."""


class SingleClassDataset(DataError):
    """A dataset to evaluate contains only one class label."""


class SingleClassTruth(DataError):
    """Ground-truth labels for a ROC sweep contain only one class."""


class UntrainedModel(VanetlabError):
    """predict/score called before fit."""


class WidthMismatch(VanetlabError):
    """Feature matrix width differs from the width the model was fit on."""


class LengthMismatch(VanetlabError):
    """Two sequences that must align have different lengths."""


class EmptyInput(VanetlabError):
    """An operation that needs at least one element got none."""


class MalformedCurve(VanetlabError):
    """ROC points violate the curve invariants."""


class OutOfRange(VanetlabError):
    """A rate passed to a metric helper lies outside [0, 1]."""
