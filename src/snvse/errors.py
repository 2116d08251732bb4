"""Exception hierarchy for the snvse pipeline.

Every failure raised by this package derives from ``SnvseError`` so callers
can catch pipeline errors without swallowing programming errors. Missing
input files raise the builtin ``FileNotFoundError``.

A class is kept only when a caller or an exit code tells it apart (the CLI
catches only ``InvalidRange`` by name, for exit code 2) or when it names a
failure a user acts on, as printed on stderr and in manifests. A broken
contract that is neither raises ``PreconditionViolation`` with a message
that says which.
"""


class SnvseError(Exception):
    """Base class for all snvse failures."""


class ToolNotFound(SnvseError):
    """The configured ffmpeg/ffprobe command could not be resolved."""


class ProberFailure(SnvseError):
    """ffprobe exited nonzero or printed unusable output, or an MP4 read in-process is unusable."""


class NoVideoStream(SnvseError):
    """The container holds no video stream."""


class EncoderFailure(SnvseError):
    """ffmpeg exited nonzero; captured stderr is included in the message."""


class PreconditionViolation(SnvseError, ValueError):
    """An operation was called with arguments violating its contract."""


class InvalidRange(PreconditionViolation):
    """CRF search range is empty or out of bounds."""


class DuplicatePair(PreconditionViolation):
    """A pair identifier appears twice in one profile, merge or batch."""


class AllItemsFailed(SnvseError):
    """A batch (estimate, emulate or mock-platform) was empty or every item errored."""


class IoFailure(SnvseError):
    """Reading or writing a profile file failed."""


class SchemaViolation(SnvseError):
    """A profile document is missing fields or violates invariants."""


class PresetMismatch(SnvseError):
    """Profiles (or profile vs. run configuration) disagree on the preset."""


class NoSupport(SnvseError):
    """No profile entries share the selected output resolution."""
