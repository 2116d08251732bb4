"""Run configuration: external tool commands, preset, worker and scratch settings.

The ffmpeg/ffprobe commands are plain strings resolved in this order:
explicit argument > ``SNVSE_FFMPEG`` / ``SNVSE_FFPROBE`` environment
variables > bare ``ffmpeg`` / ``ffprobe`` on PATH. A command may contain
several tokens (e.g. ``python -m snvse.sim_ffmpeg``); it is split with
shlex before execution.
"""

from __future__ import annotations

import os
import shlex
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from .errors import PreconditionViolation, ToolNotFound

ENV_FFMPEG = "SNVSE_FFMPEG"
ENV_FFPROBE = "SNVSE_FFPROBE"

DEFAULT_PRESET = "medium"


def _default_workers() -> int:
    return os.cpu_count() or 1


@dataclass(frozen=True)
class RunConfig:
    """Shared settings for every operation that touches external tools."""

    ffmpeg: str = "ffmpeg"
    ffprobe: str = "ffprobe"
    preset: str = DEFAULT_PRESET
    workers: int = field(default_factory=_default_workers)
    scratch_dir: Path | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise PreconditionViolation(f"workers must be >= 1, got {self.workers}")

    @classmethod
    def from_env(cls, **overrides) -> "RunConfig":
        """Build a config from environment variables plus keyword overrides."""
        base = {
            "ffmpeg": os.environ.get(ENV_FFMPEG, "ffmpeg"),
            "ffprobe": os.environ.get(ENV_FFPROBE, "ffprobe"),
        }
        base.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**base)

    def ffmpeg_argv(self) -> list[str]:
        return shlex.split(self.ffmpeg)

    def ffprobe_argv(self) -> list[str]:
        return shlex.split(self.ffprobe)

    def scratch_path(self) -> Path:
        return self.scratch_dir if self.scratch_dir is not None else Path(tempfile.gettempdir())

    def check_tools(self) -> None:
        """Verify both tool commands resolve to something executable.

        Raises ToolNotFound with the offending command so misconfiguration
        fails at startup instead of mid-batch.
        """
        for name, cmd in (("ffmpeg", self.ffmpeg), ("ffprobe", self.ffprobe)):
            tokens = shlex.split(cmd)
            if not tokens:
                raise ToolNotFound(f"{name} command is empty")
            exe = tokens[0]
            if shutil.which(exe) is None and not Path(exe).exists():
                raise ToolNotFound(
                    f"{name} command {cmd!r} not found; install it, pass --{name}-bin, "
                    f"or set {ENV_FFMPEG if name == 'ffmpeg' else ENV_FFPROBE}"
                )
