"""Exception hierarchy shared across the package."""


class DltschedError(Exception):
    """Base class for all package errors."""


class InvalidInputError(DltschedError, ValueError):
    """A caller-supplied value violates an operation's preconditions."""


class NumericError(DltschedError, ArithmeticError):
    """A computation produced non-finite or degenerate values."""


class StratificationError(DltschedError):
    """Dataset too small to split with per-stratum representation."""


class TrainingDivergedError(DltschedError):
    """Training loss became non-finite."""

    def __init__(self, epoch: int):
        self.epoch = epoch
        super().__init__(f"training diverged at epoch {epoch}")


class FileFormatError(DltschedError):
    """A dataset, stats, or model file is malformed or version-incompatible."""
