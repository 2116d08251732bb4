"""Output checks. Each returns a list of failure messages; empty means correct.

The expected values are derived here from the corpus and the profile file,
without calling the snvse code under test.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

from corpus import Input, Pair


def check_estimate(profile_path: Path, pairs: list[Pair]) -> list[str]:
    """Every pair is in the profile with the hidden output size and CRF."""
    if not profile_path.exists():
        return [f"estimate wrote no profile at {profile_path.name}"]
    entries = {e["pair_id"]: e for e in json.loads(profile_path.read_text())["entries"]}
    failures = []
    for pair in pairs:
        entry = entries.get(pair.pair_id)
        if entry is None:
            failures.append(f"{pair.pair_id}: missing from the profile")
            continue
        got = (tuple(entry["rho_in"]), tuple(entry["rho_out"]), entry["crf_hat"], entry["saturated"])
        want = (pair.size, pair.hidden_size, *pair.expected)
        if got != want:
            failures.append(f"{pair.pair_id} (hidden crf {pair.hidden_crf:g}): "
                            f"got {got}, want {want}")
    return failures


def _select(profile: dict, rho: tuple[int, int]) -> dict:
    """The selection rules, evaluated by enumerating every profile entry."""
    entries = profile["entries"]
    rho_ins = sorted({tuple(e["rho_in"]) for e in entries},
                     key=lambda r: ((r[0] - rho[0]) ** 2 + (r[1] - rho[1]) ** 2,
                                    -r[0] * r[1], -r[0]))
    chosen_in = rho_ins[0]
    outs: dict[tuple[int, int], int] = {}
    for e in entries:
        if tuple(e["rho_in"]) == chosen_in:
            outs[tuple(e["rho_out"])] = outs.get(tuple(e["rho_out"]), 0) + 1
    rho_out = sorted(outs, key=lambda r: (-outs[r], -r[0] * r[1], -r[0]))[0]
    crfs = [e["crf_hat"] for e in entries
            if tuple(e["rho_out"]) == rho_out and not e["saturated"]]
    return {
        "rho_star": [rho_out[0] - rho_out[0] % 2, rho_out[1] - rho_out[1] % 2],
        "crf_star": sum(crfs) / len(crfs),
        "matched_exactly": chosen_in == rho,
        "support_count": len(crfs),
    }


def check_manifest(manifest_path: Path, profile_path: Path, inputs: list[Input]) -> list[str]:
    """Every manifest record equals a brute-force evaluation of the rules."""
    if not manifest_path.exists():
        return ["emulate wrote no manifest"]
    profile = json.loads(profile_path.read_text())
    records = {Path(r["input"]).stem: r for r in json.loads(manifest_path.read_text())}
    failures = []
    for item in inputs:
        record = records.get(item.name)
        if record is None or "error" in record:
            failures.append(f"{item.name}: {record and record.get('error') or 'no manifest record'}")
            continue
        want = _select(profile, item.size)
        for key, value in want.items():
            got = record.get(key)
            same = (math.isclose(got, value, rel_tol=1e-12) if key == "crf_star"
                    else got == value)
            if not same:
                failures.append(f"{item.name}: {key} is {got!r}, want {value!r}")
        if not Path(record.get("output", "")).is_file():
            failures.append(f"{item.name}: output {record.get('output')!r} is missing")
    return failures


def check_outputs(manifest_path: Path, inputs: list[Input], probe) -> list[str]:
    """Every output probes as h264/yuv420p at rho_star and the input's frame rate."""
    records = {Path(r["input"]).stem: r for r in json.loads(manifest_path.read_text())}
    failures = []
    for item in inputs:
        record = records[item.name]
        info = probe(record["output"])
        got = (info.codec_name, info.pixel_format, [info.width, info.height], info.frame_rate)
        want = ("h264", "yuv420p", record["rho_star"], item.fps)
        if got != want:
            failures.append(f"{item.name}: output probes as {got}, want {want}")
    return failures


def check_stability(csv_path: Path, profile_path: Path, resolution) -> list[str]:
    """Properties any correct bootstrap of subset means has.

    Rows run n' = 1..population (the CLI's default n_max is the population
    for this group); every mean lies within the population's range; n' = 1
    draws single values, so its min and max are population values; at
    n' = population every subset is the population, so the range is 0 and
    the mean is the population mean.
    """
    if not csv_path.exists():
        return ["analyze-stability wrote no CSV"]
    profile = json.loads(profile_path.read_text())
    values = [e["crf_hat"] for e in profile["entries"]
              if tuple(e["rho_out"]) == resolution and not e["saturated"]]
    population, mean = len(values), Fraction(sum(values), len(values))
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    failures = []
    if [int(r["n_prime"]) for r in rows] != list(range(1, min(50, population) + 1)):
        return [f"unexpected n' column: {[r['n_prime'] for r in rows]}"]
    lo, hi = min(values), max(values)
    tol = 1e-9  # a mean of equal floats may land an ulp off them
    for r in rows:
        cmin, cmax, cmean, std = (float(r[k]) for k in ("crf_min", "crf_max", "crf_mean", "crf_stddev"))
        if not (lo <= cmin <= cmean + tol and cmean <= cmax + tol and cmax <= hi and std >= 0):
            failures.append(f"n'={r['n_prime']}: row {r} violates min <= mean <= max within [{lo}, {hi}]")
    first, last = rows[0], rows[-1]
    if float(first["crf_min"]) not in values or float(first["crf_max"]) not in values:
        failures.append(f"n'=1: min/max {first['crf_min']}/{first['crf_max']} are not population values")
    if int(last["n_prime"]) == population:
        if float(last["crf_max"]) - float(last["crf_min"]) != 0:
            failures.append(f"n'=population: range is not 0 ({last})")
        if not math.isclose(float(last["crf_mean"]), float(mean), rel_tol=1e-12):
            failures.append(f"n'=population: mean {last['crf_mean']} is not {float(mean)}")
    return failures
