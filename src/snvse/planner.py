"""Emulation planning: pick the output resolution and CRF for each input.

Resolution: the profile's input resolution Euclidean-nearest to the
input's, so an exact match (distance 0) wins. Ties are broken
deterministically (smallest distance, then larger input pixel count, then
larger input width). When one input resolution maps to several output
resolutions, the one backed by the most entries wins.

CRF: the arithmetic mean of the estimated CRFs of all entries sharing the
selected output resolution; saturated entries are excluded unless asked
for. The fractional mean goes to the encoder as-is.

The planner trusts the profile schema (``PlatformProfile.validate``),
which ``emulate_batch`` runs before any work: resolutions are tuples and
each ``rho_out`` is even, so the selected one is encoded as it is.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

from .config import RunConfig
from .encoder import EncodeSpec, encode_batch
from .errors import AllItemsFailed, NoSupport, PreconditionViolation, PresetMismatch
from .probe import media_info
from .profile_db import PlatformProfile, ProfileEntry
from .runner import Outcome, by_stem, refuse_overwrite, run_batch

logger = logging.getLogger(__name__)

ASPECT_WARN_THRESHOLD = 0.01


@dataclass(frozen=True)
class EmulationPlan:
    """Everything needed to emulate platform sharing for one input."""

    input_path: Path
    rho_star: tuple[int, int]
    crf_star: float
    matched_exactly: bool
    support_count: int
    spec: EncodeSpec
    aspect_change: float
    output_path: Path | None = None  # set by emulate_batch, which encodes to it


def _distance_sq(a: tuple[int, int], b: tuple[int, int]) -> int:
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2


def _pick_rho_out(candidates: list[ProfileEntry]) -> tuple[int, int]:
    """Majority output resolution among entries sharing one input resolution."""
    counts = Counter(entry.rho_out for entry in candidates)
    return max(counts, key=lambda rho: (counts[rho], rho[0] * rho[1], rho[0]))


def select_resolution(
    rho: tuple[int, int], profile: PlatformProfile
) -> tuple[tuple[int, int], bool]:
    """Return (rho_out, matched_exactly) for input resolution *rho*."""
    if not profile.entries:
        raise PreconditionViolation("profile has no entries")
    best_rho_in = min(
        {entry.rho_in for entry in profile.entries},
        key=lambda rin: (_distance_sq(rin, rho), -(rin[0] * rin[1]), -rin[0]),
    )
    nearest = [entry for entry in profile.entries if entry.rho_in == best_rho_in]
    return _pick_rho_out(nearest), best_rho_in == rho


def supporting_entries(
    rho_out: tuple[int, int], profile: PlatformProfile, include_saturated: bool
) -> list[ProfileEntry]:
    """The CRF group: entries at output resolution *rho_out*, saturated ones only
    if asked for. Raises NoSupport, naming the usable output resolutions, if empty."""
    group = [entry for entry in profile.entries
             if entry.rho_out == rho_out and (include_saturated or not entry.saturated)]
    if not group:
        usable = dict.fromkeys(f"{e.rho_out[0]}x{e.rho_out[1]}" for e in profile.entries
                               if include_saturated or not e.saturated)
        raise NoSupport(f"no entries at {rho_out[0]}x{rho_out[1]}"
                        + ("" if include_saturated else " (saturated ones excluded)")
                        + f"; usable output resolutions: {', '.join(usable) or 'none'}")
    return group


def select_crf(
    rho_star: tuple[int, int],
    profile: PlatformProfile,
    include_saturated: bool = False,
) -> tuple[float, int]:
    """Mean estimated CRF over entries with output resolution *rho_star*."""
    group = supporting_entries(rho_star, profile, include_saturated)
    return sum(entry.crf_hat for entry in group) / len(group), len(group)


def plan_emulation(
    input_path: str | Path,
    profile: PlatformProfile,
    config: RunConfig | None = None,
    include_saturated: bool = False,
) -> EmulationPlan:
    """Read *input_path*'s facts with ``media_info`` (from its ``moov`` if it
    is an MP4 that reader reads, else by the prober) and derive its
    emulation encode spec."""
    config = config or RunConfig()
    info = media_info(input_path, config)
    rho_star, matched = select_resolution(info.resolution, profile)
    crf_star, support = select_crf(rho_star, profile, include_saturated)

    in_aspect = info.width / info.height
    out_aspect = rho_star[0] / rho_star[1]
    aspect_change = abs(out_aspect / in_aspect - 1.0)
    if aspect_change > ASPECT_WARN_THRESHOLD:
        logger.warning(
            "%s: aspect ratio changes by %.1f%% (%dx%d -> %dx%d, full-frame scale)",
            input_path, aspect_change * 100, info.width, info.height, *rho_star,
        )

    spec = EncodeSpec(
        target_width=rho_star[0],
        target_height=rho_star[1],
        crf=crf_star,
        frame_rate=info.frame_rate,  # emulation keeps the input's frame rate
    )
    return EmulationPlan(
        input_path=Path(input_path),
        rho_star=rho_star,
        crf_star=crf_star,
        matched_exactly=matched,
        support_count=support,
        spec=spec,
        aspect_change=aspect_change,
    )


def emulate_batch(
    inputs: list[str | Path],
    profile: PlatformProfile,
    out_dir: str | Path,
    config: RunConfig | None = None,
    include_saturated: bool = False,
) -> list[Outcome]:
    """Emulate every input into *out_dir*; per-input failures are recorded.

    Every input is planned first, by ``run_batch``, then the planned ones
    are encoded by ``encode_batch``, up to four inputs per tool run.
    Each Outcome's ``result`` is its input's EmulationPlan. Outputs are named
    ``<stem>.<platform>.mp4`` and a JSON manifest of the plans is written
    next to them. Raises AllItemsFailed when *inputs* is empty, and when no
    input succeeded, after the manifest is written.
    Before any work, raises SchemaViolation if the profile fails its
    ``validate``, PresetMismatch if *config* has another preset than the
    profile, and PreconditionViolation if the profile has no entries, two
    inputs share a stem, or an output (the manifest too) resolves to an input.
    """
    if not inputs:
        raise AllItemsFailed("no inputs to emulate")
    profile.validate()
    config = config or RunConfig(preset=profile.preset)
    if config.preset != profile.preset:
        raise PresetMismatch(
            f"profile was estimated with preset {profile.preset!r} but the run "
            f"configures {config.preset!r}; estimates are preset-relative"
        )
    if not profile.entries:
        raise PreconditionViolation("profile has no entries")
    by_stem(inputs)
    out_dir = Path(out_dir)
    output_of = {Path(path): out_dir / f"{Path(path).stem}.{profile.platform_name}.mp4" for path in inputs}
    refuse_overwrite([*output_of.values(), out_dir / "manifest.json"], inputs)
    out_dir.mkdir(parents=True, exist_ok=True)

    def work(input_path: str | Path) -> EmulationPlan:
        plan = plan_emulation(input_path, profile, config, include_saturated)
        return replace(plan, output_path=output_of[plan.input_path])

    planned = run_batch(work, inputs, config.workers)
    jobs = [(o.item, o.result.spec, o.result.output_path) for o in planned if o.ok]
    failed = {o.item: o for o in encode_batch(jobs, config) if not o.ok}
    outcomes = [failed.get(o.item, o) for o in planned]

    write_manifest(outcomes, out_dir / "manifest.json")
    if not any(o.ok for o in outcomes):
        raise AllItemsFailed("every input failed; first error: " + outcomes[0].error)
    return outcomes


def write_manifest(outcomes: list[Outcome], path: str | Path) -> None:
    records = []
    for outcome in outcomes:
        record: dict = {"input": str(Path(outcome.item))}
        if outcome.ok:
            plan = outcome.result
            record.update(
                output=str(plan.output_path),
                rho_star=list(plan.rho_star),
                crf_star=plan.crf_star,
                matched_exactly=plan.matched_exactly,
                support_count=plan.support_count,
                aspect_change=round(plan.aspect_change, 6),
            )
        else:
            record["error"] = outcome.error
        records.append(record)
    with open(path, "w") as fh:
        json.dump(records, fh, indent=2)
        fh.write("\n")
