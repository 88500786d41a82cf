"""Exception hierarchy shared across the package."""


class SdmkitError(Exception):
    """Base class for all package errors."""


class ConfigParseError(SdmkitError):
    """Malformed configuration document."""


class ConfigValidationError(SdmkitError):
    """Configuration violates a field constraint."""


class FormatError(SdmkitError):
    """A data file does not match its declared format."""


class DataError(SdmkitError):
    """A data value is out of its legal range."""


class UnsupportedCrsError(SdmkitError):
    """Coordinate reference system not in the registry."""


class ProjectionDomainError(SdmkitError):
    """Point lies outside the projection's valid domain."""


class MissingModalityError(SdmkitError):
    """A survey lacks data in one of the configured modalities."""


class CoverageError(SdmkitError):
    """Tagged raster layers do not cover the requested cube shape."""


class DegenerateSplitError(SdmkitError):
    """Spatial split cannot produce two non-empty partitions."""


class RegistryError(SdmkitError):
    """Unknown model provider or architecture name."""


class SurgeryError(SdmkitError):
    """Model modifier applied to an incompatible architecture."""


class ShapeError(SdmkitError):
    """Tensor shapes do not match an operation's contract."""


class CheckpointMismatchError(SdmkitError):
    """Checkpoint does not match the current model architecture."""


class DegenerateLabelsError(SdmkitError):
    """Rank statistic undefined: labels contain a single class."""


class AlignmentError(SdmkitError):
    """Prediction and label survey ids do not line up."""
