"""Benchmark snvse end to end through its CLI, and layer by layer from a trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workloads (see BENCHMARK.json) are
batch jobs in a closed loop: one CLI process at a time, each with
``--workers`` = min(2, nproc), repeated until ``--seconds`` have passed
(at least twice). Tools are the sim backend, pinned as
``<this python> -m snvse.sim_ffmpeg`` / ``sim_ffprobe``; nothing is taken
from PATH.

``--trace 0`` reports the end-to-end metrics of untraced runs. ``--trace 1``
alternates untraced and traced runs and reports the per-layer metrics of the
traced ones (see ``layers.METRICS``), with the tracing overhead. Every run's
outputs are checked; the result and its provenance go to
``perfbench/out/<workload>-seed<N>-trace<T>.json``, tables to stderr, and the
summary JSON to the last line of stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_estimate, check_manifest, check_outputs, check_stability
from corpus import (
    PLATFORM, STABILITY_RESOLUTION, Tools, build_inputs, build_pairs, build_profile,
)
from layers import METRICS, layer_metrics, load_spans, pair_traces, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("processes_per_item", "count"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
)
MIN_ITERATIONS = 2
SETUP_SAMPLES_PER_ROUND = 2
FLOOR_SAMPLES = 5
CLI_TIMEOUT_S = 120
MIN_COVERAGE = 0.95
STABILITY_ITERATIONS = 1000


@dataclass
class CliRun:
    args: list[str]
    code: int
    wall: float
    cpu: float
    spawns: int
    rss_mb: float
    stdout: str
    stderr: str
    leaked: list[str]
    trace: dict | None = None  # the launcher's span dump, when traced
    t_exit: float = 0.0


@dataclass
class Iteration:
    runs: list[CliRun]
    failures: list[str]
    traced: bool

    @property
    def wall(self) -> float:
        return sum(r.wall for r in self.runs)

    @property
    def cpu(self) -> float:
        return sum(r.cpu for r in self.runs)

    @property
    def processes(self) -> int:
        return len(self.runs) + sum(r.spawns for r in self.runs)


@dataclass
class Bench:
    seed: int
    work: Path
    workers: int = field(default_factory=lambda: min(2, os.cpu_count() or 1))
    tools: Tools = field(default_factory=lambda: Tools(sys.executable, SRC))

    def cli(self, args: list[str], stem: Path, traced: bool) -> CliRun:
        """Run one snvse command as a fresh process and measure it."""
        stats, trace = stem.with_suffix(".stats"), stem.with_suffix(".trace")
        argv = [sys.executable, str(HERE / "launch.py"), "--stats", str(stats)]
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        if traced:
            argv += ["--trace", str(trace), "--t0", repr(t0)]
        # Output goes to files, not pipes: a leaked process holding a pipe
        # open would delay the CLI's observed exit and hide the leak.
        out_path, err_path = stem.with_suffix(".out"), stem.with_suffix(".err")
        with open(out_path, "w") as out, open(err_path, "w") as err:
            proc = subprocess.Popen(argv + ["--"] + args, stdout=out, stderr=err,
                                    start_new_session=True)
            try:
                proc.wait(timeout=CLI_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
        t1 = time.perf_counter()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        leaked = _reap_group(proc.pid)
        doc = json.loads(stats.read_text()) if stats.exists() else {"spawns": 0, "maxrss_kb": 0}
        return CliRun(args, proc.returncode, t1 - t0,
                      (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
                      doc["spawns"], doc["maxrss_kb"] / 1024.0, out_path.read_text(),
                      err_path.read_text(), leaked,
                      json.loads(trace.read_text()) if traced and trace.exists() else None, t1)


def _group_members(pgid: int) -> list[str]:
    """Live (non-zombie) processes in a process group, as 'pid cmd'."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        comm_end = stat.rindex(")")
        state, _ppid, group = stat[comm_end + 2:].split()[:3]
        if int(group) == pgid and state != "Z":
            members.append(f"{entry.name} {stat[stat.index('(') + 1:comm_end]}")
    return members


def _reap_group(pgid: int) -> list[str]:
    """Report and kill tool processes that outlived their CLI process."""
    leaked = _group_members(pgid)
    if leaked:
        os.killpg(pgid, signal.SIGKILL)
        deadline = time.monotonic() + 5
        while _group_members(pgid) and time.monotonic() < deadline:
            time.sleep(0.05)
    return leaked


def _tail(text: str) -> str:
    return " | ".join(text.strip().splitlines()[-3:])


def _digests(folder: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(folder.iterdir()) if p.name != "manifest.json"}


# --------------------------------------------------------------------------
# workloads


class Estimate:
    """``snvse estimate`` on the mock-platform pair corpus."""

    def __init__(self, strategy: str | None):
        self.strategy = strategy  # None: the CLI's default (linear) sweep
        self.pairs = []

    def build(self, bench: Bench) -> None:
        self.pairs = build_pairs(bench.tools, bench.work / "corpus", bench.seed, bench.workers)

    @property
    def items(self) -> int:
        return len(self.pairs)

    def commands(self, bench: Bench, folder: Path) -> list[list[str]]:
        corpus = bench.work / "corpus"
        args = [*bench.tools.tool_args(), "estimate", str(corpus / "originals"),
                str(corpus / "shared"), "--platform", PLATFORM, "--out",
                str(folder / "profile.json"), "--workers", str(bench.workers),
                "--scratch-dir", str(folder / "scratch")]
        return [args + (["--strategy", self.strategy] if self.strategy else [])]

    def check(self, bench: Bench, folder: Path, runs: list[CliRun]) -> list[str]:
        failures = check_estimate(folder / "profile.json", self.pairs)
        scratch = folder / "scratch"
        left = sorted(p.name for p in scratch.iterdir()) if scratch.exists() else []
        if left:
            failures.append(f"trial files left in the scratch dir: {left[:5]}")
        return failures


class Emulate:
    """``snvse emulate`` of mixed inputs against the large merged profile."""

    def __init__(self):
        self.inputs = []
        self.digests: dict[str, str] | None = None

    def build(self, bench: Bench) -> None:
        corpus = bench.work / "corpus"
        self.inputs = build_inputs(bench.tools, corpus, bench.seed, bench.workers)
        self.profile = build_profile(corpus, bench.seed)

    @property
    def items(self) -> int:
        return len(self.inputs)

    def commands(self, bench: Bench, folder: Path) -> list[list[str]]:
        paths = [str(bench.work / "corpus" / "inputs" / f"{i.name}.mp4") for i in self.inputs]
        return [[*bench.tools.tool_args(), "emulate", *paths, "--profile", str(self.profile),
                 "--out", str(folder / "out"), "--workers", str(bench.workers)]]

    def check(self, bench: Bench, folder: Path, runs: list[CliRun]) -> list[str]:
        out = folder / "out"
        failures = check_manifest(out / "manifest.json", self.profile, self.inputs)
        if failures:
            return failures
        digests = _digests(out)
        extra = sorted(set(digests) - {f"{i.name}.{PLATFORM}.mp4" for i in self.inputs})
        if extra:
            failures.append(f"unexpected files in the output dir: {extra[:5]}")
        if self.digests is None:
            from snvse.config import RunConfig
            from snvse.probe import probe_media

            config = RunConfig(ffmpeg=bench.tools.ffmpeg, ffprobe=bench.tools.ffprobe)
            failures += check_outputs(out / "manifest.json", self.inputs,
                                      lambda path: probe_media(path, config))
            self.digests = digests
        elif digests != self.digests:
            failures.append("outputs differ from the first run's (already probed) outputs")
        return failures


class Stability:
    """``snvse db show`` and ``snvse analyze-stability`` on the large profile."""

    items = 2  # the two commands

    def __init__(self):
        self.csv: bytes | None = None

    def build(self, bench: Bench) -> None:
        self.profile = build_profile(bench.work / "corpus", bench.seed)
        self.entries = len(json.loads(self.profile.read_text())["entries"])

    def commands(self, bench: Bench, folder: Path) -> list[list[str]]:
        w, h = STABILITY_RESOLUTION
        return [["db", "show", str(self.profile)],
                ["analyze-stability", "--profile", str(self.profile), "--resolution", f"{w}x{h}",
                 "--iterations", str(STABILITY_ITERATIONS), "--seed", str(bench.seed),
                 "--out", str(folder / "stability.csv")]]

    def check(self, bench: Bench, folder: Path, runs: list[CliRun]) -> list[str]:
        failures = []
        if not re.search(rf"^entries:\s+{self.entries}$", runs[0].stdout, re.MULTILINE):
            failures.append(f"db show does not report {self.entries} entries")
        csv_path = folder / "stability.csv"
        failures += check_stability(csv_path, self.profile, STABILITY_RESOLUTION)
        if csv_path.exists():
            data = csv_path.read_bytes()
            if self.csv is None:
                self.csv = data
            elif data != self.csv:
                failures.append("two runs at the same seed wrote different CSVs")
        return failures


WORKLOADS = {
    "estimate_linear": lambda: Estimate(None),
    "estimate_bisection": lambda: Estimate("bisection"),
    "emulate": Emulate,
    "stability": Stability,
}


# --------------------------------------------------------------------------
# measurement


def iterate(bench: Bench, workload, index: int, traced: bool) -> Iteration:
    folder = bench.work / f"iter{index:03d}"
    folder.mkdir()
    try:
        runs = [bench.cli(args, folder / f"cmd{k}", traced)
                for k, args in enumerate(workload.commands(bench, folder))]
        failures = []
        for run in runs:
            if run.code != 0:
                failures.append(f"`snvse {' '.join(run.args[-2:])}` exited {run.code}: {_tail(run.stderr)}")
            if run.leaked:
                failures.append(f"tool processes outlived the CLI: {run.leaked}")
        failures += workload.check(bench, folder, runs)
        return Iteration(runs, failures, traced)
    finally:
        shutil.rmtree(folder, ignore_errors=True)


# Fresh-process CLI start-up: interpreter, ``import snvse.cli``, arguments.
SETUP_ARGV = [sys.executable, "-m", "snvse.cli", "--version"]
# No-op spawn of the backend: the environment's share of every tool call.
FLOOR_ARGV = [sys.executable, "-m", "snvse.sim_ffmpeg", "-version"]


def spawn_times(argv: list[str], samples: int) -> list[float]:
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run(argv, capture_output=True, check=True, timeout=CLI_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return times


def provenance(bench: Bench, seed: int, floor_ms: float) -> dict:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = done.stdout.strip() or sha
    real = bool(shutil.which("ffmpeg") and shutil.which("ffprobe"))
    return {
        "backend": "sim (python -m snvse.sim_ffmpeg / python -m snvse.sim_ffprobe)",
        "ffmpeg": bench.tools.ffmpeg,
        "ffprobe": bench.tools.ffprobe,
        "real_ffmpeg_on_path": real,
        "real_ffmpeg_claims": "unverified: every number comes from the sim backend",
        "nproc": os.cpu_count(),
        "workers": bench.workers,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "machine": f"{platform.machine()} {platform.system()} {platform.release()}",
        "git_sha": sha,
        "seed": seed,
        "runner.floor_ms": floor_ms,
    }


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4g} q3={q3:.4g}"


def end_to_end(iterations: list[Iteration], items: int, setup: list[float]) -> tuple[dict, dict]:
    """Medians of the samples of the untraced runs."""
    samples = {
        "setup_s": setup,
        "wall_s": [it.wall for it in iterations],
        "cpu_s": [it.cpu for it in iterations],
        "processes_per_item": [it.processes / items for it in iterations],
        "peak_rss_mb": [max(r.rss_mb for r in it.runs) for it in iterations],
    }
    return {name: statistics.median(xs) for name, xs in samples.items()}, samples


def per_layer(traced: list[Iteration], plain: list[Iteration], items: int, workers: int,
              floor_ms: float) -> tuple[dict, list[str], list]:
    """Median per-layer metrics over the traced iterations, plus trace checks.

    Also returns the pair table and the self-time table of the last traced run.
    """
    rows, failures, pairs, selfs = [], [], [], {}
    for it in traced:
        if any(run.trace is None for run in it.runs):
            failures.append("a traced run wrote no trace")
            continue
        spans = [s for proc, run in enumerate(it.runs)
                 for s in load_spans(proc, run.trace, run.t_exit)]
        rows.append(layer_metrics(spans, it.wall, items, workers))
        pairs, selfs = pair_traces(spans), self_times(spans)
        if rows[-1]["trace.coverage"] < MIN_COVERAGE:
            failures.append(f"top-level spans cover {rows[-1]['trace.coverage']:.1%} of the "
                            f"traced wall time (< {MIN_COVERAGE:.0%})")
        failures += [f"{p.pair_id}: trial log {p.trials} holds no minimality witness "
                     f"for crf_hat {p.crf_hat}" for p in pairs if not p.witness]
    computed = rows[0] if rows else {}
    values = {name: statistics.median(row[name] for row in rows) if name in computed else 0.0
              for name, *_ in METRICS}
    values["runner.floor_ms"] = floor_ms
    values["trace.overhead_share"] = (statistics.median(it.wall for it in traced)
                                      / statistics.median(it.wall for it in plain) - 1.0)
    return values, failures, pairs, selfs


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(parents=True, exist_ok=True)
    bench = Bench(seed, OUT / f"work-{workload_name}-{seed}-{os.getpid()}")
    bench.work.mkdir()
    bench.tools.pin_environment()
    workload = WORKLOADS[workload_name]()
    try:
        workload.build(bench)
        floor_ms = statistics.median(spawn_times(FLOOR_ARGV, FLOOR_SAMPLES)) * 1000.0
        spawn_times(SETUP_ARGV, 1)  # fills the bytecode cache
        setup: list[float] = []
        iterations: list[Iteration] = []
        start = time.perf_counter()
        # Set-up samples are interleaved with the runs of the workload, so
        # both cover the same stretch of time on a host whose speed drifts.
        while len(iterations) < MIN_ITERATIONS or time.perf_counter() - start < seconds:
            if not trace:
                setup += spawn_times(SETUP_ARGV, SETUP_SAMPLES_PER_ROUND)
            traced = trace and len(iterations) % 2 == 1
            iterations.append(iterate(bench, workload, len(iterations), traced))
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    failures = [f for it in iterations for f in it.failures]
    plain = [it for it in iterations if not it.traced]
    result = {"workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "provenance": provenance(bench, seed, floor_ms), "items": workload.items,
              "iterations": len(iterations)}
    if trace:
        values, trace_failures, pairs, selfs = per_layer(
            [it for it in iterations if it.traced], plain, workload.items, bench.workers, floor_ms)
        failures += trace_failures
        units = {name: unit for name, unit, _ in METRICS}
        result["pairs"] = [vars(p) for p in pairs]
        result["self_s"] = selfs
        result["walls"] = {"untraced": [it.wall for it in plain],
                           "traced": [it.wall for it in iterations if it.traced]}
        result["missing_targets"] = sorted({m for it in iterations for r in it.runs
                                            for m in (r.trace or {}).get("missing", [])})
    else:
        values, samples = end_to_end(plain, workload.items, setup)
        units = dict(END_TO_END)
        result["samples"] = samples
    attempted = workload.items * len(iterations)
    # Failed items plus failed checks; one item can fail several checks, so
    # the count is capped at the items attempted (all messages are kept).
    failed = min(attempted, len(failures))
    if not trace:
        values["success_rate"] = 1.0 - failed / attempted
    result.update(attempted=attempted, failed=failed, failures=failures,
                  error_rate=failed / attempted,
                  metrics={name: {"value": values[name], "unit": units[name]} for name in units})
    return result


def report(result: dict) -> None:
    """Human-readable tables on stderr."""
    def line(text=""):
        print(text, file=sys.stderr)

    prov = result["provenance"]
    line(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
         f"iterations={result['iterations']} items={result['items']} "
         f"workers={prov['workers']} backend={prov['backend']}")
    line(f"# runner.floor_ms={prov['runner.floor_ms']:.1f}  real x264: {prov['real_ffmpeg_claims']}")
    samples = result.get("samples", {})
    for name, metric in result["metrics"].items():
        spread = _spread(samples[name]) if name in samples else ""
        line(f"  {name:28s} {metric['value']:12.4f} {metric['unit']:6s} {spread}")
    if result.get("pairs"):
        line("  pair          crf_hat sat trials spawns 2+2*trials pair_s witness")
        for p in result["pairs"]:
            line(f"  {p['pair_id']:13s} {p['crf_hat']:7d} {int(p['saturated']):3d} "
                 f"{len(p['trials']):6d} {p['spawns']:6d} {2 + 2 * len(p['trials']):10d} "
                 f"{p['seconds']:6.2f} {'yes' if p['witness'] else 'NO'}")
    if result.get("self_s"):
        line("  self time of the last traced run (span minus children), s:")
        for name, seconds in list(result["self_s"].items())[:12]:
            line(f"    {name:32s} {seconds:9.4f}")
    for failure in result["failures"][:20]:
        line(f"  FAIL {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "snvse" / "cli.py").is_file():
        print(f"error: {SRC / 'snvse'} not found; run this from a checkout of the snvse repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    report(result)
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
