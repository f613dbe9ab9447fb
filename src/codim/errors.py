"""Error types shared across the package. ``exit_code`` is the command line's
exit status for each: 2 for a bad config or parameter value, 3 otherwise."""


class CodimError(ValueError):
    """Base of every codim error."""
    exit_code = 3


class DimensionError(CodimError):
    """Operand shapes are incompatible."""


class ContractError(CodimError):
    """An input violates a documented precondition (e.g. unnormalized target rows)."""


class DegenerateInputError(CodimError):
    """Input is numerically degenerate (zero-norm rows, constant loss arrays, K<2 batches)."""


class ParameterError(CodimError):
    """A hyperparameter is outside its valid range."""
    exit_code = 2


class ConfigError(CodimError):
    """Config file is missing, malformed, or contains unknown keys."""
    exit_code = 2


class IdxParseError(CodimError):
    """An IDX file is corrupted; the message names the byte offset."""


class CheckpointError(CodimError):
    """A checkpoint file is corrupted or has the wrong magic/version."""
