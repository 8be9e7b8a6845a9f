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


class ConstraintViolationError(RoadPatchError):
    """A structural constraint (e.g. patch placement) is violated."""


class OutOfExtentError(RoadPatchError):
    """A ground-plane query falls outside a raster's extent."""


class NoGroundIntersectionError(RoadPatchError):
    """A pixel ray does not hit the ground plane in front of the camera."""


class IncompleteModelInputError(RoadPatchError):
    """The model-input crop of a frame contains unsourced pixels."""


class AdjointMismatchError(RoadPatchError):
    """A gradient image and the pose it is splatted at disagree."""


class DetectionFailedError(RoadPatchError):
    """Too few confident bands to fit one of the lane lines."""


class IllConditionedFitError(RoadPatchError):
    """The weighted least-squares system is numerically unusable."""


class StaleForwardStateError(RoadPatchError):
    """A backward pass was requested against a different forward pass."""


class NoVisibilityError(RoadPatchError):
    """No frame in the horizon ever saw the patch."""


class OutOfRangeError(RoadPatchError, ValueError):
    """A query distance lies outside a path's trusted range."""


class ConfigError(RoadPatchError):
    """A scenario file failed validation.

    ``field`` holds a dotted path such as ``"patch.placement"`` so that
    messages can point at the offending entry.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")
