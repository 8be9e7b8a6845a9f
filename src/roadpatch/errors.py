"""Exception hierarchy for the road-patch workbench.

Every failure mode that callers are expected to handle maps to one class
here; nothing in the package raises a bare ValueError for a contract
violation.  The CLI translates these into exit codes and machine-readable
stderr records.
"""


class RoadPatchError(Exception):
    """Base class for all workbench errors."""


class InvalidArgumentError(RoadPatchError, ValueError):
    """An argument is outside its documented domain."""


class OutOfExtentError(RoadPatchError):
    """A ground-plane query falls outside a raster's extent."""


class NoGroundIntersectionError(RoadPatchError):
    """A pixel ray does not hit the ground plane in front of the camera."""


class IncompleteModelInputError(RoadPatchError):
    """The model-input crop of a frame contains unsourced pixels."""


class DetectionFailedError(RoadPatchError):
    """Too few confident bands to fit one of the lane lines."""


class IllConditionedFitError(RoadPatchError):
    """The weighted least-squares system is numerically unusable."""


class NoVisibilityError(RoadPatchError):
    """No frame in the horizon ever saw the patch."""


class ConfigError(RoadPatchError):
    """A scenario file, or a ``PipelineConfig``, failed validation.

    ``field`` holds a dotted scenario path such as ``"patch.placement"``
    so that messages can point at the offending entry.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")
