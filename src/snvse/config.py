"""Run configuration: tool commands, preset, workers and scratch dir.

``RunConfig`` is the one owner of these run-wide settings, and each is
resolved once, when the config is built. The ffmpeg/ffprobe commands are
plain strings: explicit argument > ``SNVSE_FFMPEG`` / ``SNVSE_FFPROBE``
(no other module reads the environment) > bare ``ffmpeg`` / ``ffprobe``.
A command may contain several tokens (e.g. ``python -m snvse.sim_ffmpeg``);
it is split once, by shlex, and one that cannot be split (an unbalanced
quote) or is empty raises ToolNotFound. Every encode of a run uses its
``preset``; each pair's trial encodes go to a directory of its own in
``scratch_dir``, the system temp dir by default.
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
_ENV = {"ffmpeg": ENV_FFMPEG, "ffprobe": ENV_FFPROBE}

DEFAULT_PRESET = "medium"


@dataclass(frozen=True)
class RunConfig:
    """Shared settings for every operation that touches external tools."""

    ffmpeg: str = field(default_factory=lambda: os.environ.get(ENV_FFMPEG, "ffmpeg"))
    ffprobe: str = field(default_factory=lambda: os.environ.get(ENV_FFPROBE, "ffprobe"))
    preset: str = DEFAULT_PRESET
    workers: int = field(default_factory=lambda: os.cpu_count() or 1)
    scratch_dir: Path = field(default_factory=lambda: Path(tempfile.gettempdir()))

    _ffmpeg_argv: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _ffprobe_argv: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise PreconditionViolation(f"workers must be >= 1, got {self.workers}")
        for name, cmd in (("ffmpeg", self.ffmpeg), ("ffprobe", self.ffprobe)):
            try:
                tokens = tuple(shlex.split(cmd))
            except ValueError as exc:
                raise ToolNotFound(f"{name} command {cmd!r} cannot be split: {exc}; "
                                   f"fix --{name}-bin or {_ENV[name]}") from None
            if not tokens:
                raise ToolNotFound(f"{name} command is empty")
            object.__setattr__(self, f"_{name}_argv", tokens)

    def ffmpeg_argv(self) -> list[str]:
        return list(self._ffmpeg_argv)

    def ffprobe_argv(self) -> list[str]:
        return list(self._ffprobe_argv)

    def check_tools(self) -> None:
        """Verify each command's first token as ``Popen`` finds it, by ``shutil.which``:
        an executable file at a path, or a bare name on ``PATH``. Raises ToolNotFound
        with the offending command, so misconfiguration fails at startup, not mid-batch.
        """
        for name, cmd, argv in (("ffmpeg", self.ffmpeg, self._ffmpeg_argv),
                                ("ffprobe", self.ffprobe, self._ffprobe_argv)):
            if shutil.which(argv[0]) is None:
                raise ToolNotFound(f"{name} command {cmd!r} not found; install it, "
                                   f"pass --{name}-bin, or set {_ENV[name]}")
