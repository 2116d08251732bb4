"""Shared fixtures: tool backend selection and fixture clip generation.

The suite runs against real ffmpeg/ffprobe when both are on PATH, and
falls back to the bundled deterministic simulation backend otherwise.
Force a choice with SNVSE_TEST_BACKEND=real|sim. All fixture clips are
generated through the selected encoder binary, so every test exercises
the same subprocess seam production uses.
"""

from __future__ import annotations

import dataclasses
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from snvse.config import RunConfig


def _resolve_backend() -> tuple[str, str, str]:
    forced = os.environ.get("SNVSE_TEST_BACKEND", "auto")
    if forced not in ("auto", "real", "sim"):
        raise RuntimeError(f"SNVSE_TEST_BACKEND must be auto|real|sim, got {forced!r}")
    if forced in ("auto", "real"):
        ffmpeg, ffprobe = shutil.which("ffmpeg"), shutil.which("ffprobe")
        if ffmpeg and ffprobe:
            return ffmpeg, ffprobe, "real"
        if forced == "real":
            raise RuntimeError("SNVSE_TEST_BACKEND=real but ffmpeg/ffprobe are not on PATH")
    ffmpeg = shutil.which("snvse-sim-ffmpeg") or f"{sys.executable} -m snvse.sim_ffmpeg"
    ffprobe = shutil.which("snvse-sim-ffprobe") or f"{sys.executable} -m snvse.sim_ffprobe"
    return ffmpeg, ffprobe, "sim"


FFMPEG_CMD, FFPROBE_CMD, BACKEND = _resolve_backend()


def pytest_report_header(config):
    return f"snvse tool backend: {BACKEND} (ffmpeg={FFMPEG_CMD!r}, ffprobe={FFPROBE_CMD!r})"


@pytest.fixture(scope="session")
def backend() -> str:
    return BACKEND


@pytest.fixture(scope="session")
def config(tmp_path_factory) -> RunConfig:
    cfg = RunConfig(
        ffmpeg=FFMPEG_CMD,
        ffprobe=FFPROBE_CMD,
        preset="medium",
        workers=4,
        scratch_dir=tmp_path_factory.mktemp("scratch"),
    )
    cfg.check_tools()
    return cfg


@pytest.fixture(autouse=True)
def _tool_env(monkeypatch):
    # Default-config code paths (config=None) must hit the same backend.
    monkeypatch.setenv("SNVSE_FFMPEG", FFMPEG_CMD)
    monkeypatch.setenv("SNVSE_FFPROBE", FFPROBE_CMD)


@pytest.fixture()
def tool_calls(monkeypatch) -> list[list[str]]:
    """The argv of every tool run made through the probe and encoder modules."""
    import snvse.encoder
    import snvse.probe
    from snvse.runner import run_tool

    calls = []

    def counting_run_tool(argv):
        calls.append(argv)
        return run_tool(argv)

    monkeypatch.setattr(snvse.probe, "run_tool", counting_run_tool)
    monkeypatch.setattr(snvse.encoder, "run_tool", counting_run_tool)
    return calls


def fake_encoder(config: RunConfig, code: str) -> RunConfig:
    """*config* with its encoder replaced by a Python script, run as ``python -c code``.

    The script sees the encode's arguments in ``sys.argv[1:]``; the output
    path is the last of them.
    """
    return dataclasses.replace(config, ffmpeg=shlex.join([sys.executable, "-c", code]))


def fake_prober(config: RunConfig, stdout: bytes) -> RunConfig:
    """*config* with its prober replaced by a Python script that writes *stdout*
    and exits 0, whatever file it is asked about."""
    code = f"import sys; sys.stdout.buffer.write({stdout!r})"
    return dataclasses.replace(config, ffprobe=shlex.join([sys.executable, "-c", code]))


def make_clip(
    config: RunConfig,
    path: Path,
    *,
    source: str = "testsrc2",
    size: tuple[int, int] = (1280, 720),
    fps: str | int = 30,
    duration: float = 6.0,
    crf: float = 18,
    preset: str = "medium",
    halving: float | None = None,
) -> Path:
    """Generate a fixture clip through the configured encoder binary.

    *halving*, the CRF per halving of the rate, is a sim-only source option.
    """
    desc = f"{source}=size={size[0]}x{size[1]}:rate={fps}"
    if halving is not None:
        desc += f":halving={halving:g}"
    argv = config.ffmpeg_argv() + [
        "-hide_banner", "-loglevel", "error", "-y",
        "-f", "lavfi", "-i", desc,
        "-c:v", "libx264", "-crf", f"{crf:g}", "-preset", preset,
        "-pix_fmt", "yuv420p",
        "-t", f"{duration:g}",
        str(path),
    ]
    subprocess.run(argv, check=True, capture_output=True, text=True)
    return path


def make_audio_only(config: RunConfig, path: Path, duration: float = 2.0) -> Path:
    argv = config.ffmpeg_argv() + [
        "-hide_banner", "-loglevel", "error", "-y",
        "-f", "lavfi", "-i", f"sine=frequency=440:duration={duration:g}",
        str(path),
    ]
    subprocess.run(argv, check=True, capture_output=True, text=True)
    return path


# The UUID that opens x264's SEI message of its version and options.
X264_UUID = bytes.fromhex("dc45e9bde6d948b7962cd820d923eeef")


def strip_x264_settings(source: Path, path: Path) -> Path:
    """A copy of *source* at *path* that states no x264 settings: the UUID of
    its x264 SEI message is overwritten with zeros, so nothing reads it as x264's."""
    data = source.read_bytes()
    assert X264_UUID in data, f"{source} states no x264 settings"
    path.write_bytes(data.replace(X264_UUID, bytes(len(X264_UUID))))
    return path


def make_abr_clip(
    config: RunConfig,
    path: Path,
    *,
    bitrate: str = "800k",
    size: tuple[int, int] = (1280, 720),
    fps: int = 30,
    duration: float = 6.0,
) -> Path:
    """Average-bitrate fixture; two-pass under real ffmpeg for rate accuracy."""
    desc = f"testsrc2=size={size[0]}x{size[1]}:rate={fps}"
    common = [
        "-hide_banner", "-loglevel", "error", "-y",
        "-f", "lavfi", "-i", desc,
        "-c:v", "libx264", "-b:v", bitrate, "-preset", "medium",
        "-pix_fmt", "yuv420p",
        "-t", f"{duration:g}",
    ]
    if BACKEND == "real":
        logfile = str(path) + ".2pass"
        null = "NUL" if os.name == "nt" else "/dev/null"
        subprocess.run(
            config.ffmpeg_argv() + common + ["-pass", "1", "-passlogfile", logfile, "-f", "mp4", null],
            check=True, capture_output=True, text=True,
        )
        subprocess.run(
            config.ffmpeg_argv() + common + ["-pass", "2", "-passlogfile", logfile, str(path)],
            check=True, capture_output=True, text=True,
        )
    else:
        subprocess.run(
            config.ffmpeg_argv() + common + [str(path)],
            check=True, capture_output=True, text=True,
        )
    return path


@pytest.fixture(scope="session")
def clips(config, tmp_path_factory) -> dict[str, Path]:
    """Session-wide fixture clips, generated once."""
    root = tmp_path_factory.mktemp("clips")
    return {
        "hd": make_clip(config, root / "hd.mp4", source="testsrc2", size=(1280, 720), fps=30, duration=10),
        "hd25": make_clip(config, root / "hd25.mp4", source="testsrc2", size=(1280, 720), fps=25, duration=6),
        "textured": make_clip(config, root / "textured.mp4", source="mandelbrot", size=(640, 360), fps=30, duration=6),
        "flat": make_clip(config, root / "flat.mp4", source="color", size=(640, 360), fps=30, duration=6),
        "sd": make_clip(config, root / "sd.mp4", source="testsrc", size=(854, 480), fps=30, duration=6),
    }
