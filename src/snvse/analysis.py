"""Stability and fidelity diagnostics for estimated profiles.

The bootstrap study answers "how many shared videos per resolution do I
need": for each subset size n', it repeatedly draws random subsets of one
CRF group's estimates (without replacement within a subset, independent
across iterations), averages each subset, and reports the spread of those
averages. ``planner.supporting_entries`` owns the group; the study takes
its CRFs as plain numbers. It runs on the standard library:
``random.sample`` draws each subset, ``math.fsum`` sums it, and the exact
``statistics.mean`` and ``pstdev`` summarise each row, so a row of equal
means has exactly that mean and a stddev of 0. The fidelity report compares emulated outputs
against their actually-shared counterparts file by file;
``FidelityReport.summary()`` holds its rates.
"""

from __future__ import annotations

import csv
import math
import random
import statistics
from dataclasses import dataclass
from pathlib import Path

from .bitrate import measure_bitrate
from .config import RunConfig
from .errors import PreconditionViolation
from .probe import media_info

DEFAULT_ITERATIONS = 1000


@dataclass(frozen=True)
class StabilityRow:
    n_prime: int
    crf_min: float
    crf_max: float
    crf_mean: float
    crf_stddev: float

    @property
    def range_width(self) -> float:
        return self.crf_max - self.crf_min


@dataclass(frozen=True)
class StabilityReport:
    iterations: int
    rows: list[StabilityRow]
    seed: int


def bootstrap_stability(
    crfs: list[float],
    n_prime_range: tuple[int, int],
    iterations: int = DEFAULT_ITERATIONS,
    seed: int = 0,
) -> StabilityReport:
    """Bootstrap the mean of one CRF group's estimates, *crfs*, over subset sizes.

    Pure computation: no probing or encoding happens here. Deterministic
    for a given seed; each n' uses its own generator seeded with
    ``seed + n'`` so the result does not depend on scheduling.
    """
    population = len(crfs)
    if population < 2:
        raise PreconditionViolation(f"need at least 2 estimates, got {population}")

    lo, hi = n_prime_range
    if lo < 1 or hi < lo:
        raise PreconditionViolation(f"bad subset-size range [{lo}, {hi}]")
    if hi > population:
        raise PreconditionViolation(
            f"subset size {hi} exceeds population of {population} estimates"
        )
    if iterations < 1:
        raise PreconditionViolation("iterations must be positive")

    rows = []
    for n_prime in range(lo, hi + 1):
        rng = random.Random(seed + n_prime)
        means = [math.fsum(rng.sample(crfs, n_prime)) / n_prime for _ in range(iterations)]
        rows.append(
            StabilityRow(
                n_prime=n_prime,
                crf_min=min(means),
                crf_max=max(means),
                crf_mean=statistics.mean(means),
                crf_stddev=statistics.pstdev(means),
            )
        )
    return StabilityReport(iterations=iterations, rows=rows, seed=seed)


def recommend_sample_size(report: StabilityReport, width_threshold: float) -> int | None:
    """Smallest n' whose CRF range is within *width_threshold*, or None."""
    if not report.rows:
        raise PreconditionViolation("empty stability report")
    return next((row.n_prime for row in report.rows if row.range_width <= width_threshold), None)


def write_stability_csv(report: StabilityReport, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n_prime", "crf_min", "crf_max", "crf_mean", "crf_stddev"])
        for row in report.rows:
            writer.writerow([row.n_prime, row.crf_min, row.crf_max, row.crf_mean, row.crf_stddev])


# ---------------------------------------------------------------------------
# fidelity


@dataclass(frozen=True)
class FidelityPair:
    emulated: Path
    shared: Path
    resolution_match: bool
    codec_match: bool
    pixel_format_match: bool
    bitrate_rel_diff: float


@dataclass(frozen=True)
class FidelityReport:
    pairs: list[FidelityPair]

    def summary(self) -> dict:
        """Pair count, match rates, and median and mean relative bitrate difference."""
        count = len(self.pairs)
        diffs = [p.bitrate_rel_diff for p in self.pairs]
        return {
            "pairs": count,
            "resolution_equality_rate": sum(p.resolution_match for p in self.pairs) / count,
            "codec_match_rate": sum(p.codec_match for p in self.pairs) / count,
            "pixel_format_match_rate": sum(p.pixel_format_match for p in self.pairs) / count,
            "median_bitrate_rel_diff": statistics.median(diffs),
            "mean_bitrate_rel_diff": statistics.fmean(diffs),
        }


def fidelity_report(
    emulated: list[str | Path],
    shared: list[str | Path],
    config: RunConfig | None = None,
) -> FidelityReport:
    """Compare emulated outputs against shared counterparts, paired by order.

    Raises PreconditionViolation when a shared file measures 0 bit/s, which
    no relative bitrate difference can be taken against.
    """
    if len(emulated) != len(shared):
        raise PreconditionViolation(f"{len(emulated)} emulated vs {len(shared)} shared files")
    if not emulated:
        raise PreconditionViolation("empty file lists")
    config = config or RunConfig()

    pairs = []
    for emu_path, shared_path in zip(emulated, shared):
        emu = media_info(emu_path, config)
        ref = media_info(shared_path, config)
        emu_rate = measure_bitrate(emu, config).value
        ref_rate = measure_bitrate(ref, config).value
        if ref_rate == 0:
            raise PreconditionViolation(f"shared file {shared_path} measures 0 bit/s")
        pairs.append(
            FidelityPair(
                emulated=Path(emu_path),
                shared=Path(shared_path),
                resolution_match=emu.resolution == ref.resolution,
                codec_match=emu.codec_name == ref.codec_name,
                pixel_format_match=emu.pixel_format == ref.pixel_format,
                bitrate_rel_diff=abs(emu_rate - ref_rate) / ref_rate,
            )
        )
    return FidelityReport(pairs=pairs)

