"""Seeded benchmark inputs, built through the pinned sim backend.

The same seed gives the same files. The seed picks content (lavfi source,
so content complexity), half-step hidden CRFs, names and profile values.
It never changes how much work a workload is: resolutions, frame rates,
durations, CRF ceilings, entry counts and the order in which items reach
the worker pool are fixed below, so runs at different seeds are comparable.
Building the corpus is not part of any metric.
"""

from __future__ import annotations

import datetime as dt
import math
import os
import random
import shlex
import subprocess
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

SOURCES = ("testsrc", "testsrc2", "smptebars", "gradients", "mandelbrot")
PLATFORM = "mockbook"
PRESET = "medium"
C_MIN, C_MAX = 21, 50  # the CLI's default CRF range

# (original size, fps, seconds, hidden output size, hidden CRF ceiling).
# The first pair is the 1280x720 -> 640x360 CRF-33 baseline pair (testsrc2,
# full-length trials): 13 trials under the linear sweep, 6 under bisection.
# The last one is above C_MAX, so it saturates after a full sweep; it is
# queued last, so it straggles and pool scheduling shows in wall time.
ESTIMATE_PAIRS = (
    ((1280, 720), 30, 10, (640, 360), 33),
    ((1920, 1080), 25, 4, (960, 540), 23),
    ((854, 480), 30, 6, (640, 360), 28),
    ((640, 360), 25, 6, (480, 270), 41),
    ((1280, 720), 25, 6, (854, 480), 51),
)

# (input size, fps, seconds). Six match a profile input resolution exactly,
# six only by nearest neighbour; three are portrait and one square.
EMULATE_INPUTS = (
    ((1920, 1080), 30, 3),
    ((1280, 720), 25, 4),
    ((854, 480), 24, 4),
    ((640, 360), 30, 4),
    ((1080, 1920), 30, 3),
    ((1080, 1080), 25, 3),
    ((1366, 768), 30, 3),
    ((2400, 1350), 24, 2),
    ((720, 576), 25, 4),
    ((750, 1334), 30, 3),
    ((960, 544), 24, 4),
    ((480, 848), 25, 4),
)

STABILITY_RESOLUTION = (720, 720)  # a group small enough to bootstrap up to n' = population
STABILITY_POPULATION = 40

# Profile groups: input size -> (majority output, minority output, entries,
# CRF centre). 9 in 10 entries of a group take the majority output.
PROFILE_GROUPS = (
    ((3840, 2160), (1920, 1080), (1280, 720), 500, 27),
    ((2560, 1440), (1920, 1080), (1280, 720), 500, 28),
    ((1920, 1080), (1280, 720), (960, 540), 700, 29),
    ((1280, 720), (960, 540), (640, 360), 700, 31),
    ((854, 480), (640, 360), (480, 270), 600, 33),
    ((640, 360), (640, 360), (480, 270), 600, 34),
    ((1080, 1920), (720, 1280), (540, 960), 500, 30),
    ((720, 1280), (540, 960), (360, 640), 500, 32),
    ((1080, 1080), STABILITY_RESOLUTION, None, STABILITY_POPULATION, 30),
)
CAMPAIGNS = 3
SATURATED_SHARE = 0.03


@dataclass(frozen=True)
class Tools:
    """The sim backend, pinned to this interpreter and this checkout's sources."""

    python: str
    src: Path

    @property
    def ffmpeg(self) -> str:
        return f"{shlex.quote(self.python)} -m snvse.sim_ffmpeg"

    @property
    def ffprobe(self) -> str:
        return f"{shlex.quote(self.python)} -m snvse.sim_ffprobe"

    def pin_environment(self) -> None:
        """Make every process started from here on import snvse from ``src``.

        Tool commands come from flags, not from SNVSE_FFMPEG / SNVSE_FFPROBE.
        """
        for name in ("SNVSE_FFMPEG", "SNVSE_FFPROBE"):
            os.environ.pop(name, None)
        rest = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = os.pathsep.join([str(self.src)] + ([rest] if rest else []))

    def tool_args(self) -> list[str]:
        return ["--ffmpeg-bin", self.ffmpeg, "--ffprobe-bin", self.ffprobe]

    def run(self, argv: list[str]) -> None:
        subprocess.run(argv, check=True, capture_output=True, text=True,
                       timeout=120)


@dataclass(frozen=True)
class Pair:
    pair_id: str
    size: tuple[int, int]
    fps: int
    hidden_size: tuple[int, int]
    hidden_crf: float

    @property
    def expected(self) -> tuple[int, bool]:
        """(crf_hat, saturated) the estimate must report for this pair."""
        ceiling = math.ceil(self.hidden_crf)
        return (min(ceiling, C_MAX), ceiling > C_MAX)


@dataclass(frozen=True)
class Input:
    name: str
    size: tuple[int, int]
    fps: Fraction


def _make_clip(tools: Tools, path: Path, source: str, size, fps, seconds) -> None:
    # The lavfi invocation tests/conftest.py uses for its fixture clips.
    tools.run([tools.python, "-m", "snvse.sim_ffmpeg", "-hide_banner", "-loglevel", "error",
               "-y", "-f", "lavfi", "-i", f"{source}=size={size[0]}x{size[1]}:rate={fps}",
               "-c:v", "libx264", "-crf", "18", "-preset", PRESET, "-pix_fmt", "yuv420p",
               "-t", f"{seconds:g}", str(path)])


def _parallel(fn, jobs, workers: int) -> None:
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for future in [pool.submit(fn, *job) for job in jobs]:
            future.result()


def build_pairs(tools: Tools, root: Path, seed: int, workers: int) -> list[Pair]:
    """Originals in ``root/originals``, mock-shared copies in ``root/shared``."""
    rng = random.Random(f"pairs-{seed}")
    originals, shared = root / "originals", root / "shared"
    originals.mkdir(parents=True)
    shared.mkdir()
    pairs, jobs = [], []
    for index, (size, fps, seconds, hidden_size, ceiling) in enumerate(ESTIMATE_PAIRS):
        baseline = index == 0
        source = "testsrc2" if baseline else rng.choice(SOURCES)
        hidden = float(ceiling) if baseline else ceiling - rng.choice((0.0, 0.5))
        pair = Pair(f"p{index}-{rng.getrandbits(24):06x}", size, fps, hidden_size, hidden)
        pairs.append(pair)
        jobs.append((pair, source, seconds))

    def build(pair: Pair, source: str, seconds: int) -> None:
        stage = root / "stage" / pair.pair_id
        stage.mkdir(parents=True)
        clip = stage / f"{pair.pair_id}.mp4"
        _make_clip(tools, clip, source, pair.size, pair.fps, seconds)
        w, h = pair.hidden_size
        tools.run([tools.python, "-m", "snvse.cli", *tools.tool_args(), "mock-platform",
                   str(stage), "--out", str(shared), "--resolution", f"{w}x{h}",
                   "--crf", f"{pair.hidden_crf:g}", "--workers", "1", "--log-level", "warn"])
        os.replace(clip, originals / clip.name)

    _parallel(build, jobs, workers)
    return pairs


def build_inputs(tools: Tools, root: Path, seed: int, workers: int) -> list[Input]:
    """Emulation inputs in ``root/inputs``."""
    rng = random.Random(f"inputs-{seed}")
    folder = root / "inputs"
    folder.mkdir(parents=True)
    inputs, jobs = [], []
    for index, (size, fps, seconds) in enumerate(EMULATE_INPUTS):
        item = Input(f"in{index:02d}-{rng.getrandbits(24):06x}", size, Fraction(fps))
        inputs.append(item)
        jobs.append((folder / f"{item.name}.mp4", rng.choice(SOURCES), size, fps, seconds))
    _parallel(lambda *job: _make_clip(tools, *job), jobs, workers)
    return inputs


def build_profile(root: Path, seed: int) -> Path:
    """A profile merged from several campaigns, saved with ``save_profile``."""
    from snvse.profile_db import PlatformProfile, ProfileEntry, merge_profiles, save_profile

    rng = random.Random(f"profile-{seed}")
    campaigns: list[list] = [[] for _ in range(CAMPAIGNS)]
    serial = 0
    for rho_in, major, minor, count, centre in PROFILE_GROUPS:
        minority = 0 if minor is None else count // 10
        for k in range(count):
            serial += 1
            saturated = minor is not None and rng.random() < SATURATED_SHARE
            crf = C_MAX if saturated else min(C_MAX, max(C_MIN, centre + rng.randint(-3, 3)))
            campaign = rng.randrange(CAMPAIGNS)
            campaigns[campaign].append(ProfileEntry(
                rho_in=rho_in,
                rho_out=minor if k < minority else major,
                crf_hat=crf,
                saturated=saturated,
                pair_id=f"c{campaign}-{serial:05d}",
                target_bitrate=round(rng.uniform(2e5, 4e6), 1),
            ))
    for entries in campaigns:
        rng.shuffle(entries)
    profiles = [PlatformProfile(PLATFORM, dt.date(2025, 1 + k, 15), PRESET, entries)
                for k, entries in enumerate(campaigns)]
    merged = profiles[0]
    for other in profiles[1:]:
        merged = merge_profiles(merged, other)
    path = root / "profile.json"
    save_profile(merged, path)
    return path
