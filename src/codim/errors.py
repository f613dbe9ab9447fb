"""Error types shared across the package. ``exit_code`` is the command line's
exit status for each: 2 for a bad config or parameter value, 3 otherwise."""

import math


# the one table of ranges that ParameterError.check tests a value against
_RULES = {">= 0": lambda v: 0 <= v, "> 0": lambda v: 0 < v, ">= 1": lambda v: 1 <= v,
          "in [0, 1]": lambda v: 0 <= v <= 1, "in (0, 1]": lambda v: 0 < v <= 1,
          "invertible": lambda v: 0 < v and 1 / v < math.inf}


class CodimError(ValueError):
    """Base of every codim error."""
    exit_code = 3


class DimensionError(CodimError):
    """Operand shapes are incompatible."""


class DegenerateInputError(CodimError):
    """Input is numerically degenerate (zero-norm rows, constant loss arrays, K<2 batches)."""


class ParameterError(CodimError):
    """A hyperparameter is outside its valid range."""
    exit_code = 2

    @classmethod
    def check(cls, obj, rule: str, *names):
        """Raise one naming the first of ``obj``'s fields ``names`` whose value
        is not finite and ``rule``: a key of ``_RULES``, where "invertible" is
        > 0 with a finite reciprocal, so not a subnormal such as 1e-320."""
        for name in names:
            cls.check_value(name, getattr(obj, name), rule)

    @classmethod
    def check_value(cls, name: str, v: float, rule: str):
        """``check`` for one value ``v`` called ``name``. An int is always
        finite (and may exceed any float), so its message leaves that out."""
        if not (abs(v) < math.inf and _RULES[rule](v)):
            finite = "" if isinstance(v, int) else "finite and "
            raise cls(f"{name} = {v} must be {finite}{rule}")


class ConfigError(CodimError):
    """Config file is missing, malformed, or contains unknown keys."""
    exit_code = 2


class IdxParseError(CodimError):
    """An IDX file is corrupted; the message names the byte offset."""


class CheckpointError(CodimError):
    """A checkpoint file is corrupted or has the wrong magic/version."""
