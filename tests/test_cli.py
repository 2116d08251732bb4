"""End-to-end CLI flows and exit-code contract."""

import argparse
import ast
import datetime as dt
import json
import os
import shutil
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import snvse.cli
import snvse.estimator
from snvse.cli import build_parser, main
from snvse.config import RunConfig
from snvse.probe import probe_media
from snvse.profile_db import PlatformProfile, ProfileEntry, load_profile, save_profile

from conftest import fake_encoder, fake_prober, make_clip


def entry(pair_id, rho_in, rho_out, crf_hat, saturated=False):
    return ProfileEntry(rho_in=rho_in, rho_out=rho_out, crf_hat=crf_hat,
                        saturated=saturated, pair_id=pair_id, target_bitrate=4e5)


def write_profile(path, entries, preset="medium", platform="testnet"):
    save_profile(
        PlatformProfile(platform_name=platform, captured_at=dt.date(2025, 6, 1),
                        preset=preset, entries=entries),
        path,
    )
    return path


@pytest.fixture()
def quiet():
    # Keep CLI runs terse in test output.
    return ["--log-level", "error"]


def test_help_enumerates_global_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag in ["--ffmpeg-bin", "--ffprobe-bin", "--preset", "--workers",
                 "--scratch-dir", "--log-level"]:
        assert flag in text
    for command in ["estimate", "emulate", "analyze-stability", "db", "mock-platform"]:
        assert command in text


def test_subcommand_help_flags(capsys):
    for command, flags in [
        ("estimate", ["--trial-seconds", "--c-min", "--c-max",
                      "--strategy", "--manifest", "--platform", "--out"]),
        ("emulate", ["--profile", "--out", "--include-saturated"]),
        ("analyze-stability", ["--profile", "--resolution", "--iterations", "--seed", "--out"]),
        ("mock-platform", ["--resolution", "--crf", "--out"]),
    ]:
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = capsys.readouterr().out
        for flag in flags:
            assert flag in text, (command, flag)


def _parsers(parser):
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def test_every_option_is_read():
    # An option that no command reads is a dead setting.
    tree = ast.parse(Path(snvse.cli.__file__).read_text())
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "args"}
    skipped = (argparse._HelpAction, argparse._VersionAction, argparse._SubParsersAction)
    for parser in _parsers(build_parser()):
        for action in parser._actions:
            if not isinstance(action, skipped):
                assert action.dest in read, (parser.prog, action.dest)


def test_estimate_searches_by_bisection_unless_told_otherwise(capsys):
    # The default lives in the estimator; the linear sweep is the reference.
    args = build_parser().parse_args(["estimate", "o", "s", "--platform", "p", "--out", "p.json"])
    assert args.strategy == snvse.estimator.DEFAULT_STRATEGY.value == "bisection"
    with pytest.raises(SystemExit):
        main(["estimate", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "(default: bisection)" in help_text and "linear, every CRF" in help_text


def test_usage_error_exit_code_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_mock_platform_and_estimate_flow(config, tmp_path, quiet, capsys):
    originals = tmp_path / "originals"
    originals.mkdir()
    for index, source in enumerate(["testsrc2", "gradients"]):
        make_clip(config, originals / f"clip{index}.mp4", source=source,
                  size=(1280, 720), duration=4)

    shared = tmp_path / "shared"
    code = main(quiet + [
        "--ffmpeg-bin", config.ffmpeg, "--ffprobe-bin", config.ffprobe,
        "--workers", "2",
        "mock-platform", str(originals), "--out", str(shared),
        "--resolution", "640x360", "--crf", "33",
    ])
    assert code == 0
    outputs = sorted(shared.glob("*.mp4"))
    assert len(outputs) == 2
    assert probe_media(outputs[0], config).resolution == (640, 360)

    profile_path = tmp_path / "testnet.json"
    code = main(quiet + [
        "--ffmpeg-bin", config.ffmpeg, "--ffprobe-bin", config.ffprobe,
        "--workers", "2", "--scratch-dir", str(tmp_path / "scratch"),
        "estimate", str(originals), str(shared),
        "--platform", "testnet", "--out", str(profile_path),
        "--trial-seconds", "2",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "< 30 samples" in out
    profile = load_profile(profile_path)
    assert len(profile.entries) == 2
    assert all(31 <= e.crf_hat <= 35 for e in profile.entries)
    assert all(e.rho_out == (640, 360) for e in profile.entries)


@pytest.mark.parametrize("workers, runs", [(4, [1, 1, 1]), (1, [3])],
                         ids=["workers=4", "workers=1"])
def test_spawn_budget_of_mock_platform_runs_and_estimate_trials(config, tmp_path, quiet,
                                                                tool_calls, workers, runs):
    originals = tmp_path / "originals"
    originals.mkdir()
    for index, source in enumerate(["testsrc2", "gradients", "smptebars"]):
        make_clip(config, originals / f"clip{index}.mp4", source=source,
                  size=(1280, 720), duration=2)
    tools = quiet + ["--ffmpeg-bin", config.ffmpeg, "--ffprobe-bin", config.ffprobe]

    # mock-platform: each MP4 input is read from its moov, and the n inputs
    # are encoded in min(n, W·⌈n/4W⌉) runs, so one per input when n <= W.
    shared = tmp_path / "shared"
    assert main(tools + ["--workers", str(workers), "mock-platform", str(originals),
                         "--out", str(shared), "--resolution", "640x360", "--crf", "33"]) == 0
    assert [argv.count("-crf") for argv in tool_calls] == runs

    # estimate of one pair (the other originals go unpaired): both MP4s are
    # read from their moov, then an encode per trial, whose rate is read
    # from its sample table, so nothing is probed. No trial is cut at a size.
    for stem in ("clip1", "clip2"):
        (shared / f"{stem}.mp4").unlink()

    def estimate(*options):
        tool_calls.clear()
        assert main(tools + ["--scratch-dir", str(tmp_path / "scratch"),
                             "estimate", str(originals), str(shared),
                             "--platform", "testnet", "--out", str(tmp_path / "p.json"),
                             *options]) == 0
        trials = [argv for argv in tool_calls if "-crf" in argv]
        assert trials
        assert not any("-fs" in argv for argv in trials)
        assert len(tool_calls) == len(trials)
        return trials

    def crfs(argv):
        return [int(argv[index + 1]) for index, arg in enumerate(argv) if arg == "-crf"]

    # The bisection from the CRF the shared video states (33) to the answer
    # and the failing CRF below it, with 1 s trials: one tool run encodes both.
    trials = estimate("--strategy", "bisection", "--trial-seconds", "1")
    crf_hat = json.loads((tmp_path / "p.json").read_text())["entries"][0]["crf_hat"]
    runs = [crfs(argv) for argv in trials]
    assert runs[0][0] == 33
    assert [crf_hat, crf_hat - 1] in runs
    # A linear sweep from far below the crossing, with 2 s trials: a run per CRF.
    linear = estimate("--strategy", "linear", "--c-min", "21", "--c-max", "40")
    runs = [crfs(argv) for argv in linear]
    assert runs == [[crf] for crf in range(21, 34)]


def test_mock_platform_rejects_odd_resolution(config, tmp_path, quiet, capsys):
    with pytest.raises(SystemExit) as exc:
        main(quiet + ["mock-platform", str(tmp_path), "--out", str(tmp_path / "o"),
                      "--resolution", "641x360", "--crf", "30"])
    assert exc.value.code == 2
    assert "argument --resolution: must be even" in capsys.readouterr().err


def test_mock_platform_rejects_out_of_range_crf(config, tmp_path, quiet, capsys):
    with pytest.raises(SystemExit) as exc:
        main(quiet + ["mock-platform", str(tmp_path), "--out", str(tmp_path / "o"),
                      "--resolution", "640x360", "--crf", "52"])
    assert exc.value.code == 2
    assert "argument --crf: must be in [0, 51]" in capsys.readouterr().err


def test_mock_platform_empty_or_failed_batch_fails(tmp_path, quiet, capsys):
    inputs = tmp_path / "in"
    inputs.mkdir()
    argv = quiet + ["mock-platform", str(inputs), "--out", str(tmp_path / "out"),
                    "--resolution", "640x360", "--crf", "30"]
    assert main(argv) == 1
    assert f"error: AllItemsFailed: no videos in {inputs}" in capsys.readouterr().err
    (inputs / "corrupt.mp4").write_bytes(b"broken")
    assert main(argv) == 1
    assert "error: AllItemsFailed: every input failed; first error:" in capsys.readouterr().err


def test_mock_platform_into_its_inputs_dir_keeps_the_originals(clips, tmp_path, quiet, tool_calls,
                                                               capsys):
    # --out is the inputs dir, so clip.mp4's output would be clip.mp4 itself.
    inputs = tmp_path / "in"
    inputs.mkdir()
    original = inputs / "clip.mp4"
    shutil.copy(clips["flat"], original)
    before = original.read_bytes()
    code = main(quiet + ["mock-platform", str(inputs), "--out", str(inputs),
                         "--resolution", "160x120", "--crf", "30"])
    assert code == 1
    assert original.read_bytes() == before
    assert not [argv for argv in tool_calls if "-crf" in argv]
    assert _last_error(capsys) == (
        "error: AllItemsFailed: every input failed; first error: PreconditionViolation: "
        f"output {original} is the input {original}")


@pytest.mark.parametrize("command", ["emulate", "emulate-profile", "estimate", "analyze-stability"])
def test_no_command_writes_over_its_own_input(clips, tmp_path, quiet, tool_calls, capsys, command):
    # emulate runs a second time over d/*.mp4 into d, so d/x.yt.mp4, the
    # first run's output, is now an input; emulate's manifest would be its
    # profile; estimate's --out is a shared video; analyze-stability's
    # --out is its profile.
    d, s = tmp_path / "d", tmp_path / "s"
    d.mkdir()
    s.mkdir()
    for path in (d / "x.mp4", d / "x.yt.mp4", s / "x.mp4"):
        shutil.copy(clips["flat"], path)
    profile = write_profile(tmp_path / "p.json", [entry("a", (640, 360), (640, 360), 31),
                                                  entry("b", (640, 360), (640, 360), 33)],
                            platform="yt")
    shutil.copy(profile, d / "manifest.json")
    argv, target = {
        "emulate": (["emulate", str(d / "x.mp4"), str(d / "x.yt.mp4"), "--profile", str(profile),
                     "--out", str(d)], d / "x.yt.mp4"),
        "emulate-profile": (["emulate", str(d / "x.mp4"), "--profile", str(d / "manifest.json"),
                             "--out", str(d)], d / "manifest.json"),
        "estimate": (["estimate", str(d), str(s), "--platform", "yt", "--out", str(s / "x.mp4")],
                     s / "x.mp4"),
        "analyze-stability": (["analyze-stability", "--profile", str(profile),
                               "--resolution", "640x360", "--out", str(profile)], profile),
    }[command]
    inputs = [*d.iterdir(), *s.iterdir(), profile]
    before = {path: path.read_bytes() for path in inputs}
    assert main(quiet + argv) == 1
    assert {path: path.read_bytes() for path in inputs} == before
    assert tool_calls == []
    assert _last_error(capsys) == f"error: PreconditionViolation: output {target} is the input {target}"


def test_tool_output_that_is_not_utf8_fails_only_its_item(config, clips, tmp_path, quiet,
                                                          capsys):
    # ffmpeg quotes file names, which need not be UTF-8.
    inputs = tmp_path / "in"
    inputs.mkdir()
    shutil.copy(clips["flat"], inputs / "flat.mp4")
    encoder = fake_encoder(config, "import sys; sys.stderr.buffer.write(b'cannot open caf"
                                   "\\xe9.mp4'); sys.exit(1)")
    code = main(quiet + ["--ffmpeg-bin", encoder.ffmpeg, "mock-platform", str(inputs),
                         "--out", str(tmp_path / "out"), "--resolution", "640x360", "--crf", "30"])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: AllItemsFailed: every input failed; first error: EncoderFailure: " in err
    assert "cannot open caf\ufffd.mp4" in err


@pytest.mark.parametrize("command", ["not-executable", "directory", "working-dir-only", "empty"])
def test_tool_check_refuses_what_popen_cannot_start(tmp_path, quiet, tool_calls, capsys,
                                                    monkeypatch, command):
    # Each of these exists as a path, but no tool run could start it.
    script = tmp_path / "cwdff"
    script.write_text("#!/bin/sh\nexit 0\n")
    (tmp_path / "ffdir").mkdir()
    if command == "working-dir-only":
        script.chmod(0o755)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("PATH", os.path.dirname(sys.executable))
    ffmpeg = {"not-executable": str(script), "directory": str(tmp_path / "ffdir"),
              "working-dir-only": "cwdff", "empty": ""}[command]
    inputs = tmp_path / "in"
    inputs.mkdir()
    (inputs / "clip.mp4").write_bytes(b"never probed")
    out = tmp_path / "out"
    assert main(quiet + ["--ffmpeg-bin", ffmpeg, "mock-platform", str(inputs), "--out", str(out),
                         "--resolution", "640x360", "--crf", "30"]) == 1
    assert tool_calls == []
    assert not out.exists()
    err = capsys.readouterr().err
    if command == "empty":
        assert "error: ToolNotFound: ffmpeg command is empty" in err
    else:
        assert f"error: ToolNotFound: ffmpeg command {ffmpeg!r} not found" in err
        assert "--ffmpeg-bin" in err and "SNVSE_FFMPEG" in err


def test_tool_check_accepts_what_popen_starts(tmp_path, monkeypatch):
    script = tmp_path / "bin" / "myffmpeg"
    script.parent.mkdir()
    script.write_text("#!/bin/sh\nexit 0\n")
    script.chmod(0o755)
    monkeypatch.setenv("PATH", os.pathsep.join([str(script.parent), os.path.dirname(sys.executable),
                                                os.environ["PATH"]]))
    for command in ["myffmpeg -hide_banner", str(script), "python -m snvse.sim_ffmpeg",
                    f"{sys.executable} -m snvse.sim_ffmpeg"]:
        RunConfig(ffmpeg=command, ffprobe=command).check_tools()


def _unprobed_pair_dirs(tmp_path):
    """originals/ and shared/ holding one stem pair of files that are not videos."""
    for side in ("originals", "shared"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "clip.mp4").write_bytes(b"never probed")
    return [str(tmp_path / "originals"), str(tmp_path / "shared")]


def test_estimate_no_pairs_fails(config, tmp_path, quiet):
    empty_a = tmp_path / "a"
    empty_b = tmp_path / "b"
    empty_a.mkdir()
    empty_b.mkdir()
    code = main(quiet + ["estimate", str(empty_a), str(empty_b),
                         "--platform", "x", "--out", str(tmp_path / "p.json")])
    assert code == 1


@pytest.mark.parametrize("bounds", [
    ["--c-min", "15"],
    ["--c-max", "51"],
    ["--c-min", "30", "--c-max", "30"],
], ids=["below-schema", "above-schema", "empty"])
def test_estimate_rejects_crf_range_before_any_work(config, tmp_path, quiet, monkeypatch,
                                                    capsys, bounds):
    # A profile entry only holds crf_hat in [21, 50]; a wider range must be
    # refused before the first probe, not after every encode has run.
    import snvse.encoder
    import snvse.probe
    from snvse.runner import run_tool

    calls = []

    def counting_run_tool(argv):
        calls.append(argv)
        return run_tool(argv)

    monkeypatch.setattr(snvse.probe, "run_tool", counting_run_tool)
    monkeypatch.setattr(snvse.encoder, "run_tool", counting_run_tool)
    dirs = _unprobed_pair_dirs(tmp_path)
    out = tmp_path / "p.json"
    code = main(quiet + [
        "--ffmpeg-bin", config.ffmpeg, "--ffprobe-bin", config.ffprobe,
        "estimate", *dirs, "--platform", "x", "--out", str(out),
    ] + bounds)
    assert code == 2
    assert calls == []
    assert not out.exists()
    assert "CRF range" in capsys.readouterr().err


@pytest.mark.parametrize("seconds", ["0", "-2", "nan", "inf", "soon"])
def test_estimate_rejects_bad_trial_seconds_before_any_work(tmp_path, quiet, tool_calls, capsys,
                                                            seconds):
    dirs = _unprobed_pair_dirs(tmp_path)
    out = tmp_path / "p.json"
    with pytest.raises(SystemExit) as exc:
        main(quiet + ["estimate", *dirs, "--platform", "x", "--out", str(out),
                      "--trial-seconds", seconds])
    assert exc.value.code == 2
    assert tool_calls == []
    assert not out.exists()
    assert "--trial-seconds" in capsys.readouterr().err


@pytest.mark.parametrize("sources", [[], ["originals"], ["originals", "--manifest"],
                                     ["originals", "shared", "--manifest"]],
                         ids=["none", "one-dir", "one-dir-and-manifest", "dirs-and-manifest"])
def test_estimate_takes_two_dirs_or_a_manifest(tmp_path, quiet, tool_calls, capsys, sources):
    dirs = _unprobed_pair_dirs(tmp_path)
    manifest = tmp_path / "pairs.csv"
    manifest.write_text(f"{dirs[0]}/clip.mp4,{dirs[1]}/clip.mp4\n")
    named = {"originals": dirs[0], "shared": dirs[1], "--manifest": f"--manifest={manifest}"}
    with pytest.raises(SystemExit) as exc:
        main(quiet + ["estimate", *map(named.get, sources),
                      "--platform", "x", "--out", str(tmp_path / "p.json")])
    assert exc.value.code == 2
    assert tool_calls == []
    assert "estimate takes ORIGINALS_DIR and SHARED_DIR, or --manifest FILE" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--workers", "two", "db", "show", "p.json"], "argument --workers: expected an integer, got 'two'"),
    (["analyze-stability", "--profile", "p.json", "--resolution", "640x360", "--out", "s.csv",
      "--iterations", "1.5"], "argument --iterations: expected an integer, got '1.5'"),
    (["estimate", "a", "b", "--platform", "x", "--out", "p.json", "--trial-seconds", "soon"],
     "argument --trial-seconds: expected a number, got 'soon'"),
    (["--workers", "0", "db", "show", "p.json"], "argument --workers: must be >= 1, got 0"),
    (["analyze-stability", "--profile", "p.json", "--resolution", "wide", "--out", "s.csv"],
     "argument --resolution: expected WIDTHxHEIGHT, got 'wide'"),
    (["analyze-stability", "--profile", "p.json", "--resolution", "0x360", "--out", "s.csv"],
     "argument --resolution: dimensions must be positive, got '0x360'"),
], ids=["workers", "iterations", "trial-seconds", "workers-zero", "resolution",
        "resolution-zero"])
def test_option_types_say_what_they_expect(quiet, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(quiet + argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "invalid" not in err


def test_estimate_rejects_unwritable_out_before_any_work(tmp_path, quiet, tool_calls, capsys):
    # The parent of --out is a file, so the profile could not be saved
    # after the encodes.
    dirs = _unprobed_pair_dirs(tmp_path)
    out = tmp_path / "originals" / "clip.mp4" / "p.json"
    code = main(quiet + ["estimate", *dirs, "--platform", "x", "--out", str(out)])
    assert code == 1
    assert tool_calls == []
    assert "IoFailure: cannot write profile" in capsys.readouterr().err


def test_estimate_makes_the_scratch_dir_before_any_tool_runs(tmp_path, quiet, tool_calls,
                                                            capsys):
    dirs = _unprobed_pair_dirs(tmp_path)
    notadir = tmp_path / "notadir"
    notadir.write_bytes(b"")
    code = main(quiet + ["--scratch-dir", str(notadir / "sub"), "estimate", *dirs,
                         "--platform", "x", "--out", str(tmp_path / "p.json")])
    assert code == 1
    assert tool_calls == []
    assert "first error: NotADirectoryError: " in capsys.readouterr().err


def test_estimate_rejects_a_directory_out_before_any_work(tmp_path, quiet, tool_calls, capsys):
    dirs = _unprobed_pair_dirs(tmp_path)
    code = main(quiet + ["estimate", *dirs, "--platform", "x", "--out", str(tmp_path)])
    assert code == 1
    assert tool_calls == []
    assert "IoFailure: cannot write profile" in capsys.readouterr().err


@pytest.mark.parametrize("command, error", [
    ("analyze-stability", "IoFailure"), ("emulate", "FileExistsError"),
    ("mock-platform", "FileExistsError"),
])
def test_bad_output_path_is_operational_error(tmp_path, quiet, capsys, command, error):
    # analyze-stability writes a CSV at --out; the others make a directory there.
    profile_path = write_profile(tmp_path / "p.json",
                                 [entry(f"p{i}", (1280, 720), (640, 360), 30) for i in range(3)])
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    (inputs / "clip.mp4").write_bytes(b"never probed")
    argv = {
        "analyze-stability": ["--profile", str(profile_path), "--resolution", "640x360",
                              "--iterations", "10", "--out", str(tmp_path)],
        "emulate": [str(inputs / "clip.mp4"), "--profile", str(profile_path),
                    "--out", str(profile_path)],
        "mock-platform": [str(inputs), "--resolution", "640x360", "--crf", "33",
                          "--out", str(profile_path)],
    }[command]
    assert main(quiet + [command, *argv]) == 1
    assert f"error: {error}: " in capsys.readouterr().err


@pytest.mark.parametrize("out", ["dir", "under-a-file"])
def test_analyze_stability_refuses_an_unusable_out_before_the_bootstrap(tmp_path, quiet, capsys,
                                                                       monkeypatch, out):
    profile_path = write_profile(tmp_path / "p.json",
                                 [entry(f"p{i}", (1280, 720), (640, 360), 30) for i in range(3)])
    calls = []
    monkeypatch.setattr(snvse.cli, "bootstrap_stability", lambda *args, **kw: calls.append(args))
    out_path = {"dir": tmp_path, "under-a-file": profile_path / "s.csv"}[out]
    assert main(quiet + ["analyze-stability", "--profile", str(profile_path), "--resolution",
                         "640x360", "--out", str(out_path)]) == 1
    assert calls == []
    assert f"error: IoFailure: cannot write CSV to {out_path}: " in capsys.readouterr().err


def test_analyze_stability_makes_the_parent_of_out(tmp_path, quiet):
    profile_path = write_profile(tmp_path / "p.json",
                                 [entry(f"p{i}", (1280, 720), (640, 360), 30) for i in range(3)])
    out_csv = tmp_path / "new" / "sub" / "s.csv"
    assert main(quiet + ["analyze-stability", "--profile", str(profile_path), "--resolution",
                         "640x360", "--iterations", "10", "--out", str(out_csv)]) == 0
    assert out_csv.read_text().startswith("n_prime,crf_min,crf_max,crf_mean,crf_stddev")


def test_interrupt_exits_130(tmp_path, quiet, monkeypatch, capsys):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(snvse.cli, "estimate_batch", interrupted)
    code = main(quiet + ["estimate", str(tmp_path), str(tmp_path),
                         "--platform", "x", "--out", str(tmp_path / "p.json")])
    assert code == 130
    assert "interrupted; running tools terminated" in capsys.readouterr().err


def test_mock_platform_rejects_shared_stems_before_any_work(tmp_path, quiet, tool_calls, capsys):
    # clip.mp4 and clip.mov would both be written to out/clip.mp4.
    inputs = tmp_path / "in"
    inputs.mkdir()
    for name in ("clip.mp4", "clip.mov"):
        (inputs / name).write_bytes(b"never probed")
    out = tmp_path / "out"
    code = main(quiet + ["mock-platform", str(inputs), "--out", str(out),
                         "--resolution", "640x360", "--crf", "30"])
    assert code == 1
    assert tool_calls == []
    assert not out.exists()
    assert "share a stem" in capsys.readouterr().err


def test_estimate_rejects_shared_stems_before_any_work(tmp_path, quiet, tool_calls, capsys):
    # Stem pairing cannot tell which of clip.mp4 and clip.mov pairs with
    # shared/clip.mp4; neither is dropped silently.
    for side, names in (("originals", ["clip.mp4", "clip.mov"]), ("shared", ["clip.mp4"])):
        (tmp_path / side).mkdir()
        for name in names:
            (tmp_path / side / name).write_bytes(b"never probed")
    out = tmp_path / "p.json"
    code = main(quiet + ["estimate", str(tmp_path / "originals"), str(tmp_path / "shared"),
                         "--platform", "x", "--out", str(out)])
    assert code == 1
    assert tool_calls == []
    assert not out.exists()
    assert "share a stem" in capsys.readouterr().err


def test_estimate_rejects_a_platform_with_a_path_separator(tmp_path, quiet, tool_calls, capsys):
    # emulate would write <stem>.../escaped.mp4 outside its output dir.
    for side in ("originals", "shared"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "clip.mp4").write_bytes(b"never probed")
    out = tmp_path / "p.json"
    with pytest.raises(SystemExit) as exc:
        main(quiet + ["estimate", str(tmp_path / "originals"), str(tmp_path / "shared"),
                      "--platform", "../escaped", "--out", str(out)])
    assert exc.value.code == 2
    assert tool_calls == []
    assert not out.exists()
    assert "must not contain a path separator" in capsys.readouterr().err


def test_estimate_rejects_repeated_pair_ids_before_any_work(tmp_path, quiet, tool_calls, capsys):
    # Manifest pairing names each pair after its original's stem, so both
    # rows are pair "clip"; the profile could not be saved after the encodes.
    for name in ("a/clip.mp4", "b/clip.mp4", "shared/one.mp4", "shared/two.mp4"):
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_bytes(b"never probed")
    manifest = tmp_path / "pairs.csv"
    manifest.write_text(
        "original,shared\n"
        f"{tmp_path / 'a/clip.mp4'},{tmp_path / 'shared/one.mp4'}\n"
        f"{tmp_path / 'b/clip.mp4'},{tmp_path / 'shared/two.mp4'}\n"
    )
    out = tmp_path / "p.json"
    code = main(quiet + ["estimate", "--manifest", str(manifest),
                         "--platform", "x", "--out", str(out)])
    assert code == 1
    assert tool_calls == []
    assert not out.exists()
    assert "DuplicatePair" in capsys.readouterr().err


def _estimate_with_missing_original(config, tmp_path, quiet):
    """Run a manifest estimate whose second pair names a missing original."""
    original = make_clip(config, tmp_path / "orig.mp4", size=(640, 360), duration=3)
    shared_dir = tmp_path / "shared"
    shared_dir.mkdir()
    code = main(quiet + [
        "mock-platform", str(tmp_path), "--out", str(shared_dir),
        "--resolution", "320x240", "--crf", "30",
    ])
    assert code == 0
    missing = tmp_path / "missing.mp4"
    manifest = tmp_path / "pairs.csv"
    manifest.write_text(
        "original,shared\n"
        f"{original},{shared_dir / 'orig.mp4'}\n"
        f"{missing},{shared_dir / 'orig.mp4'}\n"
    )
    code = main(quiet + [
        "--scratch-dir", str(tmp_path / "scratch"),
        "estimate", "--manifest", str(manifest),
        "--platform", "x", "--out", str(tmp_path / "p.json"),
        "--trial-seconds", "2",
    ])
    return code, missing


def test_estimate_manifest_with_missing_file_continues(config, tmp_path, quiet, capsys):
    code, _ = _estimate_with_missing_original(config, tmp_path, quiet)
    assert code == 0
    err = capsys.readouterr().err
    assert "1 of 2 pairs failed" in err
    assert len(load_profile(tmp_path / "p.json").entries) == 1


def test_failed_pair_is_reported_once(config, tmp_path, quiet, capsys):
    _, missing = _estimate_with_missing_original(config, tmp_path, quiet)
    err = capsys.readouterr().err
    assert f"pair missing failed: FileNotFoundError: {missing}" in err
    assert err.count(str(missing)) == 1


def test_emulate_flow_and_preset_guard(config, clips, tmp_path, quiet):
    profile_path = write_profile(
        tmp_path / "p.json",
        [entry("a", (1280, 720), (640, 360), 31), entry("b", (1280, 720), (640, 360), 33)],
    )
    out_dir = tmp_path / "emu"
    code = main(quiet + [
        "emulate", "--profile", str(profile_path), "--out", str(out_dir),
        str(clips["hd"]), str(clips["hd25"]),
    ])
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert len(manifest) == 2
    emitted = probe_media(out_dir / f"{clips['hd25'].stem}.testnet.mp4", config)
    assert emitted.frame_rate == Fraction(25, 1)
    assert emitted.resolution == (640, 360)

    code = main(quiet + [
        "--preset", "slow",
        "emulate", "--profile", str(profile_path), "--out", str(tmp_path / "emu2"),
        str(clips["hd"]),
    ])
    assert code == 1


def test_emulate_runs_under_the_profile_preset(clips, tmp_path, quiet, tool_calls):
    profile_path = write_profile(
        tmp_path / "p.json", [entry("a", (1280, 720), (640, 360), 31)], preset="slow",
    )
    code = main(quiet + [
        "emulate", "--profile", str(profile_path), "--out", str(tmp_path / "emu"),
        str(clips["hd"]),
    ])
    assert code == 0
    encodes = [argv for argv in tool_calls if "-crf" in argv]
    assert len(encodes) == 1
    assert "-preset slow" in " ".join(encodes[0])


def test_emulate_partial_and_total_failure(config, clips, tmp_path, quiet):
    profile_path = write_profile(tmp_path / "p.json", [entry("a", (1280, 720), (1280, 720), 30)])
    corrupt = tmp_path / "corrupt.mp4"
    corrupt.write_bytes(b"broken")
    out_dir = tmp_path / "out"
    code = main(quiet + [
        "emulate", "--profile", str(profile_path), "--out", str(out_dir),
        str(clips["hd"]), str(corrupt),
    ])
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert sum("error" in r for r in manifest) == 1

    code = main(quiet + [
        "emulate", "--profile", str(profile_path), "--out", str(tmp_path / "out2"),
        str(corrupt),
    ])
    assert code == 1


def test_emulate_with_empty_profile_fails_before_any_work(clips, tmp_path, quiet, tool_calls,
                                                         capsys):
    profile_path = write_profile(tmp_path / "p.json", [])
    out_dir = tmp_path / "emu"
    code = main(quiet + [
        "emulate", "--profile", str(profile_path), "--out", str(out_dir),
        str(clips["hd"]), str(clips["sd"]), str(clips["flat"]),
    ])
    assert code == 1
    assert tool_calls == []
    assert not out_dir.exists()
    assert "PreconditionViolation: profile has no entries" in capsys.readouterr().err


def test_analyze_stability_flow(tmp_path, quiet, capsys):
    entries = [entry(f"p{i}", (1280, 720), (1280, 720), 28 + i % 6) for i in range(40)]
    profile_path = write_profile(tmp_path / "p.json", entries)
    out_csv = tmp_path / "report.csv"
    argv = quiet + [
        "analyze-stability", "--profile", str(profile_path),
        "--resolution", "1280x720", "--iterations", "500", "--seed", "9",
        "--out", str(out_csv), "--width-threshold", "2.0",
    ]
    assert main(argv) == 0
    first = out_csv.read_bytes()
    assert main(argv) == 0
    assert out_csv.read_bytes() == first
    out = capsys.readouterr().out
    assert "smallest n'" in out or "no n'" in out
    # Subsets of 5 of 40 spread estimates never agree exactly.
    assert main(argv + ["--width-threshold", "0", "--n-max", "5"]) == 0
    assert "no n' reaches range <= 0; largest studied: 5" in capsys.readouterr().out


@pytest.mark.parametrize("threshold, code", [("0", 0), ("-0", 0), ("nan", 2), ("-1", 2),
                                             ("inf", 2), ("wide", 2)])
def test_analyze_stability_width_threshold_is_a_finite_width(tmp_path, quiet, capsys, threshold,
                                                             code):
    # Two estimates at one CRF: every subset's range is 0.
    profile_path = write_profile(tmp_path / "p.json", [entry(pair, (1280, 720), (1280, 720), 30)
                                                       for pair in "ab"])
    argv = quiet + ["analyze-stability", "--profile", str(profile_path), "--resolution",
                    "1280x720", "--out", str(tmp_path / "r.csv"), f"--width-threshold={threshold}"]
    if code:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        assert "--width-threshold" in capsys.readouterr().err
    else:
        assert main(argv) == 0
        assert "smallest n' with CRF range <= 0: 1" in capsys.readouterr().out


@pytest.mark.parametrize("sizes, population, code", [
    (["--n-min", "5", "--n-max", "3"], 10, 2), (["--n-min", "20"], 10, 1),
    (["--n-max", "20"], 10, 1), (["--n-min", "60"], 100, 0),
], ids=["min-above-max", "min-above-population", "max-above-population", "min-above-default-max"])
def test_analyze_stability_subset_sizes(tmp_path, quiet, capsys, sizes, population, code):
    # An empty range is a usage error; one the profile's population cannot
    # fill is found only once the profile is read. The default --n-max,
    # min(50, population), rises to an --n-min above it.
    profile_path = write_profile(tmp_path / "p.json", [entry(f"p{i}", (1280, 720), (1280, 720), 30)
                                                       for i in range(population)])
    argv = quiet + ["analyze-stability", "--profile", str(profile_path), "--resolution",
                    "1280x720", "--out", str(tmp_path / "r.csv")] + sizes
    if code == 0:
        assert main(argv) == 0
        assert "n'=60: range 0.000   n'=60: range 0.000" in capsys.readouterr().out
        return
    if code == 2:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--n-min 5 exceeds --n-max 3" in capsys.readouterr().err
    else:
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "PreconditionViolation" in err
        assert "subset size 20 exceeds population of 10 estimates" in err
    assert not (tmp_path / "r.csv").exists()


def test_analyze_stability_unknown_resolution(tmp_path, quiet, capsys):
    profile_path = write_profile(tmp_path / "p.json", [entry("a", (1280, 720), (1280, 720), 30)])
    code = main(quiet + [
        "analyze-stability", "--profile", str(profile_path),
        "--resolution", "854x480", "--out", str(tmp_path / "r.csv"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: NoSupport: no entries at 854x480" in err
    assert "1280x720" in err


def test_empty_crf_group_reads_alike_in_every_command(clips, tmp_path, quiet, capsys):
    # Every entry at 640x360 is saturated: analyze-stability refuses the
    # resolution, and emulate each input, with planner's one message.
    profile_path = write_profile(tmp_path / "p.json", [
        entry(f"p{i}", (640, 360), (640, 360), 50, saturated=True) for i in range(3)])
    message = ("NoSupport: no entries at 640x360 (saturated ones excluded); "
               "usable output resolutions: none")
    assert main(quiet + ["analyze-stability", "--profile", str(profile_path), "--resolution",
                         "640x360", "--out", str(tmp_path / "r.csv")]) == 1
    assert f"error: {message}\n" in capsys.readouterr().err
    out_dir = tmp_path / "emu"
    assert main(quiet + ["emulate", "--profile", str(profile_path), "--out", str(out_dir),
                         str(clips["flat"])]) == 1
    [record] = json.loads((out_dir / "manifest.json").read_text())
    assert record["error"] == message


def test_db_show(tmp_path, quiet, capsys):
    profile_path = write_profile(
        tmp_path / "p.json",
        [entry("a", (1280, 720), (640, 360), 31), entry("b", (1280, 720), (640, 360), 34),
         entry("c", (640, 480), (640, 480), 28, saturated=True)],
    )
    assert main(quiet + ["db", "show", str(profile_path)]) == 0
    out = capsys.readouterr().out
    assert "1280x720 -> 640x360: 2 entries, mean crf 32.50" in out
    assert "1 saturated" in out
    assert "platform:     testnet" in out


def test_missing_profile_is_operational_error(tmp_path, quiet, capsys):
    code = main(quiet + ["db", "show", str(tmp_path / "absent.json")])
    assert code == 1
    # So are a directory, and a profile whose entry is not an object.
    assert main(quiet + ["db", "show", str(tmp_path)]) == 1
    assert _last_error(capsys).startswith(f"error: IoFailure: cannot read profile {tmp_path}: ")
    profile_path = write_profile(tmp_path / "p.json", [entry("a", (1280, 720), (640, 360), 31)])
    doc = json.loads(profile_path.read_text())
    doc["entries"][0] = ["a"]
    profile_path.write_text(json.dumps(doc))
    assert main(quiet + ["db", "show", str(profile_path)]) == 1
    assert _last_error(capsys) == "error: SchemaViolation: profile.entries[0] must be an object"


def _last_error(capsys) -> str:
    return capsys.readouterr().err.splitlines()[-1]


def test_unsplittable_ffmpeg_command_is_refused_before_any_work(tmp_path, quiet, tool_calls,
                                                                capsys):
    inputs = tmp_path / "in"
    inputs.mkdir()
    (inputs / "clip.mp4").write_bytes(b"never probed")
    out = tmp_path / "out"
    assert main(quiet + ["--ffmpeg-bin", "ff 'x", "mock-platform", str(inputs), "--out", str(out),
                         "--resolution", "640x360", "--crf", "30"]) == 1
    assert tool_calls == []
    assert not out.exists()
    assert _last_error(capsys) == ("error: ToolNotFound: ffmpeg command \"ff 'x\" cannot be split: "
                                   "No closing quotation; fix --ffmpeg-bin or SNVSE_FFMPEG")
    with pytest.raises(snvse.errors.ToolNotFound):
        RunConfig(ffmpeg="ff 'x")


def test_unsplittable_ffprobe_command_is_refused_before_any_work(config, tmp_path, quiet,
                                                                 tool_calls, capsys, monkeypatch):
    monkeypatch.setenv("SNVSE_FFPROBE", "ff 'x")
    out = tmp_path / "p.json"
    assert main(quiet + ["--ffmpeg-bin", config.ffmpeg, "estimate", *_unprobed_pair_dirs(tmp_path),
                         "--platform", "x", "--out", str(out)]) == 1
    assert tool_calls == []
    assert not out.exists()
    assert _last_error(capsys) == ("error: ToolNotFound: ffprobe command \"ff 'x\" cannot be split: "
                                   "No closing quotation; fix --ffprobe-bin or SNVSE_FFPROBE")


def test_manifest_that_is_not_utf8_is_refused_before_any_work(tmp_path, quiet, tool_calls, capsys):
    manifest = tmp_path / "pairs.csv"
    manifest.write_bytes(b"original,shared\ncaf\xe9.mp4,shared.mp4\n")
    out = tmp_path / "p.json"
    assert main(quiet + ["estimate", "--manifest", str(manifest), "--platform", "x",
                         "--out", str(out)]) == 1
    assert tool_calls == []
    assert not out.exists()
    assert _last_error(capsys) == (
        f"error: PreconditionViolation: manifest {manifest} is not UTF-8: 'utf-8' codec can't "
        "decode byte 0xe9 in position 19: invalid continuation byte")
    # So is a row of one column.
    manifest.write_text("original,shared\nclip.mp4\n")
    assert main(quiet + ["estimate", "--manifest", str(manifest), "--platform", "x",
                         "--out", str(out)]) == 1
    assert tool_calls == []
    assert not out.exists()
    assert _last_error(capsys) == (
        "error: PreconditionViolation: manifest row needs 2 columns: ['clip.mp4']")


@pytest.mark.parametrize("command", ["db show", "emulate", "analyze-stability"])
def test_profile_that_is_not_utf8_is_refused_before_any_work(tmp_path, quiet, tool_calls, capsys,
                                                             command):
    profile_path = tmp_path / "p.json"
    profile_path.write_bytes(b'{"platform_name": "caf\xe9"}\n')
    out = tmp_path / "out"
    argv = {
        "db show": ["db", "show", str(profile_path)],
        "emulate": ["emulate", str(tmp_path / "clip.mp4"), "--profile", str(profile_path),
                    "--out", str(out)],
        "analyze-stability": ["analyze-stability", "--profile", str(profile_path),
                              "--resolution", "640x360", "--out", str(out)],
    }[command]
    assert main(quiet + argv) == 1
    assert tool_calls == []
    assert not out.exists()
    assert _last_error(capsys) == (
        f"error: SchemaViolation: profile {profile_path} is not valid JSON: 'utf-8' codec can't "
        "decode byte 0xe9 in position 22: invalid continuation byte")


def test_a_prober_document_that_is_not_an_object_fails_its_pair(config, tmp_path, quiet, capsys):
    # A prober printing [] once ended estimate in an AttributeError traceback.
    out = tmp_path / "p.json"
    prober = fake_prober(config, b"[]").ffprobe
    assert main(quiet + ["--ffprobe-bin", prober, "estimate", *_unprobed_pair_dirs(tmp_path),
                         "--platform", "x", "--out", str(out)]) == 1
    assert _last_error(capsys).startswith(
        "error: AllItemsFailed: every pair failed; first error: ProberFailure: prober output for ")
    assert not out.exists()


def test_a_deeply_nested_profile_is_a_schema_violation(tmp_path, quiet, capsys):
    # json raises RecursionError on deep nesting, which once ended db show in a traceback.
    profile_path = tmp_path / "p.json"
    profile_path.write_bytes(b"[" * 100_000)
    assert main(quiet + ["db", "show", str(profile_path)]) == 1
    assert _last_error(capsys).startswith(
        f"error: SchemaViolation: profile {profile_path} is not valid JSON: maximum recursion depth")
