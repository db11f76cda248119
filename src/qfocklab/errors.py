"""Exception types with stable machine-readable codes.

Every error raised by the library carries a ``code`` attribute that is
also embedded in CLI reports, so scripted callers never have to parse
messages.
"""


class QFockError(Exception):
    """Base class for all library errors."""

    code = "ERROR"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        base = super().__str__()
        return f"[{self.code}] {base}" if base else self.code


class NotHermitianError(QFockError):
    code = "NOT_HERMITIAN"


class EigenFailure(QFockError):
    code = "EIG_FAIL"


class BadExponent(QFockError):
    code = "BAD_EXPONENT"


class NotPositiveSemidefinite(QFockError):
    code = "NOT_PSD"


class LevelTooLarge(QFockError):
    code = "LEVEL_TOO_LARGE"


class ParamMismatch(QFockError):
    code = "PARAM_MISMATCH"


class ShapeMismatch(QFockError):
    code = "SHAPE_MISMATCH"


class TruncationLoss(QFockError):
    code = "TRUNCATION_LOSS"


class UnknownRoute(QFockError):
    code = "UNKNOWN_ROUTE"


class WindowOverflow(QFockError):
    code = "WINDOW_OVERFLOW"


class ConfigError(QFockError):
    code = "CONFIG_ERROR"


class OutputWriteError(QFockError):
    code = "WRITE_FAILED"
