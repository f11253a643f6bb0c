"""Exception hierarchy shared across the pipeline, and the reader of text
input files that turns a failure to read one into it.

CLI exit codes: ConfigError -> 1, data/state problems -> 2,
numeric problems -> 3, artifact format problems -> 4.
"""

from pathlib import Path


class SynthVCError(Exception):
    """Base class for all pipeline errors."""


class ConfigError(SynthVCError):
    """Bad parameter values, unknown config keys, misuse of a command."""


class DataError(SynthVCError):
    """Corpus or input content violates a precondition."""


class StateError(SynthVCError):
    """Component used in the wrong lifecycle state (unfitted, missing upstream)."""


class GridFormatError(DataError):
    """A delayed token grid violates its structural layout."""


class CapacityError(SynthVCError):
    """Sequence length exceeds the configured model capacity."""


class NumericsError(SynthVCError):
    """Non-finite values or an autodiff contract violation."""


class ShapeError(NumericsError):
    """Operand shapes incompatible with the requested operation."""


class DeterminismError(NumericsError):
    """A function expected to be deterministic produced differing outputs."""


class DegenerateBatchError(NumericsError):
    """Every position of a loss was masked out."""


class TrainingDivergedError(SynthVCError):
    """Loss became non-finite during training."""


class ArtifactFormatError(SynthVCError):
    """Serialized artifact has a bad magic, CRC, or structure."""


class CalibrationError(SynthVCError):
    """A measured quality gate for an oracle or encoder was not met."""


def read_text(path, error: type[SynthVCError]) -> str:
    """The UTF-8 text of an input file. A file that is missing, unreadable or
    not UTF-8 raises `error` naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise error(f"{path}: cannot read as UTF-8 text: {e}") from None
