"""The golden flow: one seeded sim run of every command, reduced to hashes.

Each output of the flow (profile bytes, manifest, CSV, stdout, each
``error:`` line, each exit code, and the CRFs each pair trialled) is
reduced to a SHA-256 and compared with ``golden.json``. A change that
keeps every output byte-identical passes unedited. A change that means
to alter an output pastes the new table, which a failure prints whole,
into ``golden.json`` and names each changed key in CHANGES.md.

Sim-only: real ffmpeg's bytes vary by build.
"""

import hashlib
import json
import re
import shutil
from collections import defaultdict
from pathlib import Path

import pytest

import snvse.estimator
from snvse.cli import main

from conftest import BACKEND, make_clip

pytestmark = pytest.mark.skipif(BACKEND != "sim", reason="golden bytes are the sim's")

GOLDEN = Path(__file__).with_name("golden.json")

# (stem, lavfi source, size, fps, CRF per halving) of each original, by
# the mock-platform run that shares it: (output resolution, hidden CRF).
PLATFORM_RUNS = {
    ("480x270", "33"): [("clip0", "testsrc2", (640, 360), 30, None),
                        ("clip1", "gradients", (640, 360), 25, None)],
    ("320x180", "30.5"): [("clip2", "mandelbrot", (854, 480), 30, None)],
    ("480x270", "36"): [("clip3", "testsrc", (640, 360), 30, 4)],
}
# Inputs to emulate: exact (640x360), nearest (to 854x480) and portrait.
EMULATE_INPUTS = [("exact", (640, 360)), ("nearest", (960, 540)), ("portrait", (360, 640))]


def _digest(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


@pytest.fixture()
def trialled(monkeypatch):
    """Per original stem, the CRF of each trial encode, in order."""
    crfs = defaultdict(list)
    encode = snvse.estimator.encode

    def spy(source, spec, *args, **kwargs):
        crfs[Path(source).stem].append(f"{spec.crf:g}")
        return encode(source, spec, *args, **kwargs)

    monkeypatch.setattr(snvse.estimator, "encode", spy)
    return crfs


def test_golden_flow(config, tmp_path, capsys, trialled):
    table = {}

    def relative(text: str) -> str:
        return text.replace(f"{tmp_path}/", "")

    def run(key: str, *argv: str) -> None:
        code = main(["--log-level", "error", "--ffmpeg-bin", config.ffmpeg,
                     "--ffprobe-bin", config.ffprobe, "--workers", "2",
                     "--scratch-dir", str(tmp_path / "scratch"), *argv])
        out, err = capsys.readouterr()
        table[f"{key}/exit"] = _digest(str(code))
        table[f"{key}/stdout"] = _digest(relative(out))
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        if errors:
            table[f"{key}/error"] = _digest(relative("\n".join(errors)))

    def profile(key: str, path: Path) -> None:
        # Pinned in place, so that db show prints the pinned date too.
        path.write_bytes(re.sub(rb'"captured_at": "[^"]*"', b'"captured_at": "2025-06-01"',
                                path.read_bytes()))
        table[f"{key}/profile"] = _digest(path.read_bytes())

    def trials(key: str) -> None:
        for stem, crfs in sorted(trialled.items()):
            table[f"{key}/trials/{stem}"] = _digest(",".join(crfs))
        trialled.clear()

    originals, shared = tmp_path / "originals", tmp_path / "shared"
    originals.mkdir()
    for (resolution, crf), clips in PLATFORM_RUNS.items():
        inputs = tmp_path / f"in-{resolution}-{crf}"
        inputs.mkdir()
        for stem, source, size, fps, halving in clips:
            make_clip(config, originals / f"{stem}.mp4", source=source, size=size, fps=fps,
                      duration=2, halving=halving)
            shutil.copy(originals / f"{stem}.mp4", inputs)
        run(f"mock-platform {resolution} {crf}", "mock-platform", str(inputs), "--out", str(shared),
            "--resolution", resolution, "--crf", crf)

    pairs = [str(originals), str(shared), "--platform", "goldnet"]
    bisection = tmp_path / "bisection.json"
    run("estimate bisection", "estimate", *pairs, "--out", str(bisection))
    profile("estimate bisection", bisection)
    trials("estimate bisection")
    manifest = tmp_path / "pairs.csv"
    manifest.write_text("original,shared\n" + "".join(
        f"{originals / stem}.mp4,{shared / stem}.mp4\n"
        for clips in PLATFORM_RUNS.values() for stem, *_ in clips))
    run("estimate linear", "estimate", "--manifest", str(manifest), "--platform", "goldnet",
        "--out", str(tmp_path / "linear.json"), "--strategy", "linear", "--c-min", "31", "--c-max", "37")
    profile("estimate linear", tmp_path / "linear.json")
    trials("estimate linear")
    run("estimate trial-seconds", "estimate", *pairs, "--out", str(tmp_path / "window.json"),
        "--trial-seconds", "1")
    profile("estimate trial-seconds", tmp_path / "window.json")
    trials("estimate trial-seconds")

    inputs = []
    for name, size in EMULATE_INPUTS:
        inputs.append(str(make_clip(config, tmp_path / f"{name}.mp4", source="smptebars",
                                    size=size, fps=24, duration=1)))
    run("emulate", "emulate", *inputs, "--profile", str(bisection),
        "--out", str(tmp_path / "emulated"))
    table["emulate/manifest"] = _digest(relative((tmp_path / "emulated" / "manifest.json").read_text()))
    run("analyze-stability", "analyze-stability", "--profile", str(bisection),
        "--resolution", "480x270", "--iterations", "50", "--seed", "3",
        "--out", str(tmp_path / "stability.csv"),
        "--width-threshold", "1")
    table["analyze-stability/csv"] = _digest((tmp_path / "stability.csv").read_bytes())
    run("db show", "db", "show", str(bisection))

    never = str(tmp_path / "never")
    run("refused crf range", "estimate", *pairs, "--out", never,
        "--c-min", "40", "--c-max", "30")
    run("refused preset", "--preset", "fast", "emulate", inputs[0], "--profile", str(bisection),
        "--out", never)
    (tmp_path / "empty").mkdir()
    run("refused empty inputs", "mock-platform", str(tmp_path / "empty"), "--out", never,
        "--resolution", "480x270", "--crf", "30")

    golden = json.loads(GOLDEN.read_text())
    assert table == golden, "new table:\n" + json.dumps(table, indent=2, sort_keys=True)
