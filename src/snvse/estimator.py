"""Per-pair CRF estimation: the minimum CRF whose trial re-encode stays
at or under the shared video's bitrate.

For each (original, shared) pair the original is re-encoded at candidate
CRFs to the shared video's resolution and frame rate, and the first
candidate whose measured bitrate does not exceed the shared bitrate wins.
The default search (``DEFAULT_STRATEGY``) is the bisection, a
rate-model-guided bracket search: it assumes bitrate is non-increasing in
CRF and that x264's rate is close to log-linear in CRF (+6 CRF roughly
halves it), predicts the crossing from the trials that bound it, and
stops only when the trial log holds the minimality witness (the answer
passes and the CRF below it fails or lies below the range). Its first
trial is the CRF the shared video states: x264 writes its options into
the first video sample, and where ``probe.x264_settings`` reads
``rc=crf`` and a finite ``crf`` there, that CRF rounded up into the
range is the start; else the search starts cold at ``c_max``. The linear
sweep from the low end is the reference definition; the bisection returns
its answer on every non-increasing rate curve, from any start. Where the
curve rises, the bisection's answer still passes with a failing CRF (or
the range's floor) below it, but may lie above the sweep's first
crossing, and a failing ``c_max`` reads as saturated; a start that passes
leaves ``c_max`` untrialled. On the sim backend's 1280x720 -> 640x360
CRF-33 pair, which states its CRF, the bisection takes 2 trials (3 from
``c_max``) against the linear sweep's 13. When even the top of the range
overshoots, the result is clamped there and flagged saturated. The range
must lie within ``profile_db.CRF_MIN``/``CRF_MAX``, the only definition
of the bounds, so every estimate can be saved.

Trial encodes and the tool runs they cost (README points here). Every
trial is encoded whole within its window, to ``trial-crf{crf}.mp4`` in a
directory of its pair's own in the scratch dir, which is removed however
the search ends. Its rate is measured as the shared video's is,
``bitrate.measure_bitrate`` of ``probe.media_info``, which ``encode``
returns, and the file is removed at once. ``media_info`` reads an MP4
from its ``moov``, with no tool run, and any other file by the prober;
the shared video's x264 settings are read from its first sample, with no
tool run either. The bisection's trial at a stated start also encodes
the CRF below it, the witness a passing start needs, in the same run
(``encode``'s sibling rule), wherever the stated CRF rounds up into
(c_min, c_max]; a trial of that CRF then reads the file with no tool
run, and one the search never asks for is logged at DEBUG, left out of
the trial log and removed with the directory. So a stated pair of MP4s
costs one tool run for its start and the CRF below it, plus one per
further trial; any other pair of MP4s costs ``trials`` tool runs. A pair
of other containers costs 2 more (plus a packet scan where the prober
reports no bitrate for the shared video). A trial the reader does not
read fully costs one probe more.
"""

from __future__ import annotations

import functools
import logging
import math
import tempfile
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .bitrate import measure_bitrate
from .config import RunConfig
from .encoder import EncodeSpec, encode, normalize_dimensions
from .errors import AllItemsFailed, InvalidRange, PreconditionViolation
from .probe import media_info, x264_settings
from .profile_db import CRF_MAX, CRF_MIN, ProfileEntry, check_unique_pair_ids
from .runner import Outcome, run_batch

logger = logging.getLogger(__name__)

# x264's CRF scale: +6 CRF roughly halves the bitrate.
CRF_PER_HALVING = 6.0

# The bisection's steps beyond halving's, spent where the rate model misses.
_SLACK_STEPS = 3


class SearchStrategy(Enum):
    LINEAR_SWEEP = "linear"
    BISECTION_WITH_VERIFY = "bisection"


# The search estimate_crf, estimate_batch and ``snvse estimate`` run unless told otherwise.
DEFAULT_STRATEGY = SearchStrategy.BISECTION_WITH_VERIFY


@dataclass(frozen=True)
class VideoPair:
    """One original video and its platform-shared counterpart."""

    original_path: Path
    shared_path: Path
    pair_id: str

    def __str__(self) -> str:
        return f"pair {self.pair_id}"


def check_range(c_min: int, c_max: int) -> None:
    """Raise InvalidRange unless CRF_MIN <= c_min < c_max <= CRF_MAX."""
    if not CRF_MIN <= c_min < c_max <= CRF_MAX:
        raise InvalidRange(f"CRF range [{c_min}, {c_max}] must satisfy "
                           f"{CRF_MIN} <= c_min < c_max <= {CRF_MAX}")


def _check_search(c_min: int, c_max: int, trial_seconds: float | None) -> None:
    check_range(c_min, c_max)
    if trial_seconds is not None and not 0 < trial_seconds < math.inf:
        raise PreconditionViolation(f"trial_seconds must be positive and finite, got {trial_seconds}")


def estimate_crf(
    pair: VideoPair,
    c_min: int = CRF_MIN,
    c_max: int = CRF_MAX,
    strategy: SearchStrategy = DEFAULT_STRATEGY,
    config: RunConfig | None = None,
    trial_seconds: float | None = None,
) -> ProfileEntry:
    """Estimate the CRF the platform applied to *pair.shared_path*.

    *trial_seconds*, positive and finite, truncates trial encodes to the
    first K seconds of the original. Their bitrate is compared with the
    shared video's whole-file bitrate, which is like with like only when
    the content's complexity is constant over time (ROADMAP item 3). Its
    trials go to a ``trials-*`` directory of its own in ``config.scratch_dir``,
    removed by the time this returns or raises.
    """
    _check_search(c_min, c_max, trial_seconds)
    config = config or RunConfig()
    config.scratch_dir.mkdir(parents=True, exist_ok=True)

    original = media_info(pair.original_path, config)
    shared = media_info(pair.shared_path, config)
    if shared.codec_name != "h264":
        logger.warning(
            "pair %s: shared video codec is %r, not h264; trial encodes still use h264",
            pair.pair_id, shared.codec_name,
        )
    target = measure_bitrate(shared, config).value
    rho_out = normalize_dimensions(shared.width, shared.height)

    trials: dict[int, float] = {}
    paired = None  # the stated start, whose trial's run also encodes the CRF below it

    def spec(crf: int) -> EncodeSpec:
        return EncodeSpec(*rho_out, float(crf), shared.frame_rate)

    def path(crf: int) -> Path:
        # trial_dir, the pair's own, is made around the search below; a pair trials a CRF once.
        return Path(trial_dir) / f"trial-crf{crf}.mp4"

    def trial(crf: int) -> float:
        siblings = [(spec(crf - 1), path(crf - 1))] if crf == paired else []
        info = encode(pair.original_path, spec(crf), path(crf), config, max_seconds=trial_seconds,
                      siblings=siblings, written=crf + 1 == paired and paired in trials)
        rate = trials[crf] = measure_bitrate(info, config).value
        path(crf).unlink()
        logger.debug("pair %s: trial crf=%d -> %.0f bit/s (target %.0f)",
                     pair.pair_id, crf, rate, target)
        return rate

    if strategy is SearchStrategy.LINEAR_SWEEP:
        search = _linear_sweep
    else:
        start, pairs_below = _stated_start(pair, c_min, c_max)
        paired = start if pairs_below else None
        search = functools.partial(_bisection_with_verify, start=start)
    with tempfile.TemporaryDirectory(prefix="trials-", dir=config.scratch_dir) as trial_dir:
        crf_hat, saturated = search(trial, target, c_min, c_max)
    if paired in trials and paired - 1 not in trials:
        logger.debug("pair %s: crf=%d, encoded beside crf=%d, was not needed",
                     pair.pair_id, paired - 1, paired)

    return ProfileEntry(
        rho_in=original.resolution,
        rho_out=rho_out,
        crf_hat=crf_hat,
        saturated=saturated,
        pair_id=pair.pair_id,
        target_bitrate=target,
        trial_log=sorted(trials.items()),
    )


def _stated_start(pair: VideoPair, c_min: int, c_max: int) -> tuple[int | None, bool]:
    """The bisection's first trial: the CRF the shared video's x264 settings
    state, rounded up into [c_min, c_max], None where they state none; and
    whether its run also encodes the CRF below it, the witness a passing
    start needs. It does where the rounded CRF lies in (c_min, c_max]: at
    c_min nothing lies below, and a start clamped down to c_max that fails
    ends the search without the CRF below it."""
    settings = x264_settings(pair.shared_path)
    if settings is None:
        logger.debug("pair %s: no x264 settings, cold start", pair.pair_id)
        return None, False
    rc, crf = settings.get("rc"), settings.get("crf")
    try:
        stated = float(crf) if rc == "crf" else math.nan
    except (TypeError, ValueError):
        stated = math.nan
    rounded = math.ceil(stated) if math.isfinite(stated) else None
    start = None if rounded is None else min(max(rounded, c_min), c_max)
    logger.debug("pair %s: x264 settings state rc=%s crf=%s, %s", pair.pair_id, rc, crf,
                 "cold start" if start is None else f"first trial at crf {start}")
    return start, rounded is not None and c_min < rounded <= c_max


def _linear_sweep(trial, target: float, c_min: int, c_max: int) -> tuple[int, bool]:
    for crf in range(c_min, c_max + 1):
        if trial(crf) <= target:
            return crf, False
    return c_max, True


def _bisection_with_verify(trial, target: float, c_min: int, c_max: int,
                           start: int | None = None) -> tuple[int, bool]:
    """Rate-model-guided search for the lowest passing CRF, from *start*,
    a CRF in [c_min, c_max], or else from c_max.

    Assumes bitrate is non-increasing in CRF; where encoder noise breaks
    that, the answer still passes with a failing CRF (or the range's floor)
    below it, but may lie above the linear sweep's first crossing, and a
    failing c_max reads as saturated even if some lower CRF passes. Keeps a
    bracket (lo, hi]: lo is the highest CRF known to fail and hi the lowest
    known to pass, c_min - 1 and c_max + 1 at the start, neither trialled;
    a search that ends with hi = c_max + 1 has seen c_max fail, and is
    saturated. After its first trial it has ceil(log2(c_max - c_min + 1)) +
    _SLACK_STEPS steps. Each trials the CRF where the rate model puts the
    target, clamped strictly inside the bracket and into [hi - 2**left,
    lo + 2**left], left being the steps after this one, so either verdict
    leaves a bracket that halving closes in time, however far the rate is
    from log-linear. A passing start leaves (c_min - 1, start], and a
    failing one (start, c_max + 1], where the model predicts upward from
    start and trials c_max only when every CRF it tries below fails. The
    search stops when hi - lo == 1, so the trials witness that hi is
    minimal, within 4 + ceil(log2(c_max - c_min + 1)) trials.
    """
    lo, r_lo, hi, r_hi = c_min - 1, None, c_max + 1, None
    crf = c_max if start is None else start
    left = math.ceil(math.log2(c_max - c_min + 1)) + _SLACK_STEPS
    while True:
        rate = trial(crf)
        # replaced: the bracket end this trial moves, as (crf, rate or None).
        if rate <= target:
            replaced, (hi, r_hi) = (hi, r_hi), (crf, rate)
        else:
            replaced, (lo, r_lo) = (lo, r_lo), (crf, rate)
        if hi - lo == 1:
            return (c_max, True) if hi > c_max else (hi, False)
        left -= 1
        predicted = round(_model_crossing(lo, r_lo, hi, r_hi, target, replaced))
        crf = min(max(predicted, lo + 1, hi - 2 ** left), hi - 1, lo + 2 ** left)


def _model_crossing(lo: int, r_lo: float | None, hi: int, r_hi: float | None, target: float,
                    replaced: tuple[int, float | None]) -> float:
    """The CRF where the rate model through the bracket ends meets *target*.

    The model is linear in log-rate: the secant between the two ends once
    both have been trialled; before that, from the one trialled end, the
    secant through it and the trial it *replaced*, where the rate falls
    from one to the other; else CRF_PER_HALVING through that end alone.
    """
    end, rate = (lo, r_lo) if r_hi is None else (hi, r_hi)
    if min(rate, target) <= 0:  # a zero-byte trial or target has no log-rate; split the bracket
        return (lo + hi) / 2
    other, r_other = replaced
    if r_lo is not None and r_hi is not None:
        slope = (hi - lo) / math.log2(r_lo / r_hi)
    elif r_other is not None and r_other > 0 and (other - end) * (rate - r_other) > 0:
        slope = (other - end) / math.log2(rate / r_other)
    else:
        slope = CRF_PER_HALVING
    return end + slope * math.log2(rate / target)


def estimate_batch(
    pairs: list[VideoPair],
    c_min: int = CRF_MIN,
    c_max: int = CRF_MAX,
    strategy: SearchStrategy = DEFAULT_STRATEGY,
    config: RunConfig | None = None,
    trial_seconds: float | None = None,
) -> list[Outcome]:
    """Estimate every pair, at most ``config.workers`` in flight, preserving order.

    Each Outcome's ``result`` is its pair's ProfileEntry. Raises AllItemsFailed
    only when no pair succeeded, and InvalidRange, PreconditionViolation or
    DuplicatePair before any work.
    """
    _check_search(c_min, c_max, trial_seconds)
    if not pairs:
        raise AllItemsFailed("no pairs to estimate")
    check_unique_pair_ids(pairs)
    config = config or RunConfig()

    def work(pair: VideoPair) -> ProfileEntry:
        return estimate_crf(
            pair, c_min=c_min, c_max=c_max, strategy=strategy,
            config=config, trial_seconds=trial_seconds,
        )

    outcomes = run_batch(work, pairs, config.workers)

    if not any(o.ok for o in outcomes):
        raise AllItemsFailed("every pair failed; first error: " + outcomes[0].error)
    return outcomes
