"""Exception hierarchy for the snvse pipeline.

Every failure raised by this package derives from ``SnvseError`` so callers
can catch pipeline errors without swallowing programming errors. Missing
input files raise the builtin ``FileNotFoundError``.
"""


class SnvseError(Exception):
    """Base class for all snvse failures."""


class ToolNotFound(SnvseError):
    """The configured ffmpeg/ffprobe command could not be resolved."""


class ProberFailure(SnvseError):
    """ffprobe exited nonzero or produced unparseable output."""


class NoVideoStream(SnvseError):
    """The container holds no video stream."""


class MissingDuration(SnvseError):
    """No usable duration was reported for the file."""


class PacketScanFailure(SnvseError):
    """Packet-size summation failed and no reported bitrate is available."""


class EncoderFailure(SnvseError):
    """ffmpeg exited nonzero; captured stderr is included in the message."""


class PreconditionViolation(SnvseError, ValueError):
    """An operation was called with arguments violating its contract."""


class InvalidRange(PreconditionViolation):
    """CRF search range is empty or out of bounds."""


class DuplicatePair(PreconditionViolation):
    """A pair identifier appears twice in one profile, merge or batch."""


class AllPairsFailed(SnvseError):
    """Every pair in an estimation batch errored."""


class AllInputsFailed(SnvseError):
    """Every input in an emulation batch errored."""


class IoFailure(SnvseError):
    """Reading or writing a profile file failed."""


class SchemaViolation(SnvseError):
    """A profile document is missing fields or violates invariants."""


class PresetMismatch(SnvseError):
    """Profiles (or profile vs. run configuration) disagree on the preset."""


class PlatformMismatch(SnvseError):
    """Profiles to merge belong to different platforms."""




class EmptyProfile(SnvseError):
    """An operation requires a profile with at least one entry."""


class NoSupport(SnvseError):
    """No profile entries share the selected output resolution."""


class MixedResolutions(SnvseError):
    """Bootstrap input estimates do not share a single output resolution."""


class PopulationTooSmall(SnvseError):
    """Bootstrap needs at least two estimates and n' <= population size."""


class LengthMismatch(SnvseError):
    """Paired file lists have different lengths."""
