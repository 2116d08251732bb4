"""CRF search strategies on synthetic rate curves: no encodes, no tool spawns.

The model-guided search must return what the linear sweep (the reference
definition) returns on every non-increasing curve, leave the minimality
witness in its trials, and stay within a logarithmic number of trials even
where the curve is far from log-linear.
"""

import itertools
import math
import random

from hypothesis import example, given, strategies as st

from snvse.estimator import CRF_PER_HALVING, _bisection_with_verify, _linear_sweep


class Curve:
    """A CRF -> bit/s table that records every trial.

    A trial in *decided*, one the estimator decides by its size, reads as
    the estimate given there instead of its rate.
    """

    def __init__(self, rates: dict[int, float], decided: dict[int, float] | None = None):
        self.rates = rates
        self.decided = decided or {}
        self.trials: list[int] = []

    def __call__(self, crf: int) -> float:
        self.trials.append(crf)
        return self.decided.get(crf, self.rates[crf])


def _log_linear(c_min, c_max, slope, crossing, target=1e5):
    return {c: target * 2.0 ** ((crossing - c) / slope) for c in range(c_min, c_max + 1)}


def _size_decided(rates, target, shares):
    """The readings of the trials decided by their size: each CRF, from c_min, with a share.

    A pass reads as ``share * target``, anywhere in [0, target]. A fail
    reads above the target: from just above it (share 0) to
    ``2 * rate - target`` (share 1).
    """
    decided = {}
    for (crf, rate), share in zip(rates.items(), shares):
        if share is None:
            continue
        if rate <= target:
            decided[crf] = share * target
        else:
            decided[crf] = max(math.nextafter(target, math.inf), target + 2 * share * (rate - target))
    return decided


PROBED = [None] * 52  # no trial decided by its size


@st.composite
def searches(draw):
    c_min = draw(st.integers(0, 50))
    c_max = draw(st.integers(c_min + 1, 51))
    crfs = range(c_min, c_max + 1)
    shape = draw(st.sampled_from(["log-linear", "curved", "steps"]))
    if shape == "log-linear":
        slope = draw(st.floats(3.0, 10.0))
        logs = [-(c - c_min) / slope for c in crfs]
    elif shape == "curved":
        slope = draw(st.floats(3.0, 10.0))
        power = draw(st.floats(0.3, 3.0))
        logs = [-((c - c_min) / slope) ** power for c in crfs]
    else:
        # Drops of zero make flat runs; large drops make cliffs.
        drops = draw(st.lists(st.sampled_from([0.0, 0.0, 0.05, 0.2, 1.0, 3.0]),
                              min_size=len(crfs) - 1, max_size=len(crfs) - 1))
        logs = [0.0] + [-sum(drops[:i + 1]) for i in range(len(drops))]
    rates = {c: 1e6 * 2.0 ** log for c, log in zip(crfs, logs)}
    if draw(st.booleans()):  # a zero-byte tail: no log-rate to model
        zero_from = draw(st.integers(c_min, c_max))
        rates.update({c: 0.0 for c in crfs if c >= zero_from})

    where = draw(st.sampled_from(["tie", "between", "at c_min", "saturated"]))
    values = sorted(rates.values())
    if where == "tie":
        target = draw(st.sampled_from(values))
    elif where == "between":
        target = draw(st.sampled_from(values)) * draw(st.floats(0.5, 2.0))
    elif where == "at c_min":
        target = values[-1] * 1.5
    else:
        target = values[0] * 0.5 if values[0] > 0 else -1.0
    return rates, target, c_min, c_max


@given(searches(), st.lists(st.none() | st.floats(0.0, 1.0), min_size=52, max_size=52))
@example((_log_linear(21, 50, 6.0, 33.0), 1e5, 21, 50), PROBED)
@example((_log_linear(21, 50, 6.0, 32.5), 1e5, 21, 50), PROBED)
@example((_log_linear(21, 50, 6.0, 10.0), 1e5, 21, 50), PROBED)
@example((_log_linear(21, 50, 6.0, 60.0), 1e5, 21, 50), PROBED)
@example((_log_linear(30, 31, 6.0, 30.5), 1e5, 30, 31), PROBED)
# Far above a crossing on a 5-CRF-per-halving curve, the first model step
# lands at 17. Where every fail reads just above the target, a secant
# through 17 creeps up from 18 one CRF at a time, and only the step budget
# bounds the trials.
@example((_log_linear(0, 51, 5.0, 23.0), 1e5, 0, 51), [0.0] * 23 + [None] * 29)
# Nearly flat just above the target, then a cliff at CRF 50: every secant
# lands next to the failing end, so only the step budget bounds the trials.
@example(({c: 1e5 * (1.001 ** (50 - c) if c < 50 else 2.0 ** -20) for c in range(52)},
          1e5, 0, 51), PROBED)
def test_model_search_matches_linear_sweep(case, shares):
    # A trial decided by its size reads anywhere on its verdict's side of
    # the target, below its rate or above it; the answer, its witness and
    # the trial bound must not move.
    rates, target, c_min, c_max = case
    _search_matching_linear_sweep(rates, target, c_min, c_max, _size_decided(rates, target, shares))


@given(searches(), st.floats(0.0, 1.0), st.lists(st.floats(0.0, 1.0), min_size=52, max_size=52))
# Every pass settles and reads as the target itself: the model then puts
# the crossing at each passing trial, and only the step budget bounds the
# trials.
@example((_log_linear(21, 50, 6.0, 33.0), 1e5, 21, 50), 1.0, [1.0] * 52)
@example((_log_linear(0, 51, 5.0, 23.0), 1e5, 0, 51), 0.97, [0.5] * 52)
# The bench's seed-7 pair p3: only CRF 50 settles, read at 0.380x the
# target where its rate is 0.358x, which moves the first model step from
# 41 to 42; the search then trials 50, 42, 41, 40 where reading every
# trial's rate takes 50, 41, 40 (test_seed_7_pair_takes_no_detour).
@example((_log_linear(21, 50, 6.21, 40.8), 1e5, 21, 50), 0.37, [0.380] * 52)
def test_settled_passes_keep_the_answer(case, line, spread):
    # A pass under the pass line settles by its size and reads as an
    # estimate anywhere in [0, target], below its rate or above it; every
    # fail reads at its rate. The answer and its witness must not move.
    rates, target, c_min, c_max = case
    shares = [share if rate <= min(target, line * target) else None
              for rate, share in zip(rates.values(), spread)]
    _search_matching_linear_sweep(rates, target, c_min, c_max, _size_decided(rates, target, shares))


def _search_matching_linear_sweep(rates, target, c_min, c_max, decided):
    """Run the bisection on *rates* and check it against the linear sweep.

    Both searches run again with the trials in *decided* read as given
    there, which must change neither answer, though the bisection's trials
    may differ. Returns the bisection's trial counts, without and with
    *decided*.
    """
    expected = _linear_sweep(rates.__getitem__, target, c_min, c_max)
    counts = []
    for readings in ({}, decided):
        curve = Curve(rates, readings)
        crf_hat, saturated = _bisection_with_verify(curve, target, c_min, c_max)

        assert (crf_hat, saturated) == expected
        assert len(curve.trials) == len(set(curve.trials))
        assert all(c_min <= crf <= c_max for crf in curve.trials)
        assert len(curve.trials) <= 4 + math.ceil(math.log2(c_max - c_min + 1))
        # The witness: crf_hat's own trial, and the failing trial just below
        # it unless crf_hat is the floor of the range (or saturated at the top).
        assert crf_hat in curve.trials
        if saturated:
            assert rates[c_max] > target
        else:
            assert rates[crf_hat] <= target
            if crf_hat > c_min:
                assert crf_hat - 1 in curve.trials
                assert rates[crf_hat - 1] > target

        assert _linear_sweep(Curve(rates, readings), target, c_min, c_max) == expected
        counts.append(len(curve.trials))
    return counts


def test_log_linear_curve_takes_at_most_three_trials():
    # The rate model is exact here, so the search needs only the answer and
    # its witness below it, plus the c_max trial that starts it.
    for crossing in (c / 4 for c in range(21 * 4, 50 * 4 + 1)):
        curve = Curve(_log_linear(21, 50, CRF_PER_HALVING, crossing))
        crf_hat, saturated = _bisection_with_verify(curve, 1e5, 21, 50)
        assert (crf_hat, saturated) == (math.ceil(crossing), False), crossing
        assert len(curve.trials) <= 3, (crossing, curve.trials)


def test_two_passing_trials_give_the_slope():
    # On curves flatter than the model's 6 CRF per halving, the first model
    # step from c_max lands above the crossing and passes; the secant
    # through the two passing trials then lands next to the crossing. The
    # fixed slope would average 4.9 trials at 8 CRF per halving and 5.8 at
    # 10 on these curves (max 7 and 8); the secant averages 3.64 and 3.74.
    for slope in (8.0, 10.0):
        counts = []
        for crossing in (c / 4 for c in range(19 * 4, 51 * 4 + 1)):
            rng = random.Random(f"{slope}|{crossing}")  # +-1.5% encoder noise
            rates = {c: rate * rng.uniform(0.985, 1.015)
                     for c, rate in _log_linear(21, 50, slope, crossing).items()}
            curve = Curve(rates)
            assert _bisection_with_verify(curve, 1e5, 21, 50) == _linear_sweep(rates.__getitem__, 1e5, 21, 50)
            counts.append(len(curve.trials))
        assert sum(counts) / len(counts) <= 4.2, slope
        assert max(counts) <= 4, slope


def test_seed_7_pair_takes_no_detour():
    # The bench's seed-7 pair p3: c_max settles and reads at 0.380x the
    # target, the first model step lands one above the crossing at 42, and
    # the secant then needs only the answer and its witness.
    curve = Curve(_log_linear(21, 50, 6.21, 40.8), {50: 0.380 * 1e5})
    assert _bisection_with_verify(curve, 1e5, 21, 50) == (41, False)
    assert curve.trials == [50, 42, 41, 40]


def _seeded_search(rng):
    """A curve of the searches() families, drawn from *rng*, with a target and a range.

    Log-linear at 3.5-10 CRF per halving, curved or stepped; half of them
    carry +-1.5% encoder noise, kept non-increasing by a running minimum.
    """
    c_min, c_max = (21, 50) if rng.random() < 0.5 else sorted(rng.sample(range(52), 2))
    crfs = range(c_min, c_max + 1)
    shape = rng.choice(["log-linear", "curved", "steps"])
    slope = rng.uniform(3.5, 10.0)
    if shape == "log-linear":
        logs = [-(c - c_min) / slope for c in crfs]
    elif shape == "curved":
        power = rng.uniform(0.3, 3.0)
        logs = [-((c - c_min) / slope) ** power for c in crfs]
    else:
        drops = [rng.choice([0.0, 0.0, 0.05, 0.2, 1.0, 3.0]) for _ in crfs[1:]]
        logs = [-sum(drops[:i]) for i in range(len(crfs))]
    rates = [1e6 * 2.0 ** log for log in logs]
    if rng.random() < 0.5:
        rates = itertools.accumulate((r * rng.uniform(0.985, 1.015) for r in rates), min)
    rates = dict(zip(crfs, rates))
    values = sorted(rates.values())
    where = rng.choice(["tie", "between", "between", "at c_min", "saturated"])
    if where == "tie":
        target = rng.choice(values)
    elif where == "between":
        target = rng.choice(values) * rng.uniform(0.5, 2.0)
    elif where == "at c_min":
        target = values[-1] * 1.5
    else:
        target = values[0] * 0.5
    return rates, target, c_min, c_max


def test_seeded_corpus_matches_linear_sweep():
    # The in-process evidence behind the bisection as the default search:
    # the answer, its witness and the trial bound on a fixed corpus, read
    # at every trial's rate and with half the trials decided by their size.
    # The corpus totals, every reading measured and half of them decided
    # by their size, may only fall.
    rng = random.Random(20261019)
    totals = [0, 0]
    for _ in range(4000):
        rates, target, c_min, c_max = _seeded_search(rng)
        assert all(a >= b for a, b in itertools.pairwise(rates.values()))
        shares = [rng.random() if rng.random() < 0.5 else None for _ in rates]
        counts = _search_matching_linear_sweep(rates, target, c_min, c_max,
                                               _size_decided(rates, target, shares))
        totals = [t + c for t, c in zip(totals, counts)]
    assert totals[0] <= 13_156 and totals[1] <= 15_519, totals


def test_seeded_rising_curves_keep_a_witnessed_answer():
    # A bump makes the rate rise at some CRF, as encoder noise can. The
    # bisection's answer then still passes with a failing CRF (or the
    # range's floor) below it, and is never below the linear sweep's first
    # crossing, but may lie above it; a failing c_max reads as saturated.
    rng = random.Random(18)
    above = 0
    for _ in range(2000):
        rates, _, c_min, c_max = _seeded_search(rng)
        start = rng.randint(c_min + 1, c_max)
        window = range(start, min(start + rng.randint(1, 4), c_max + 1))
        if not rates[start] > 0:  # underflowed to 0: no ratio to bump by
            continue
        bump = rates[start - 1] / rates[start] * rng.uniform(1.01, 1.5)
        rates.update({c: rates[c] * bump for c in window})
        near = [rates[c] for c in range(max(c_min, start - 2), min(window[-1] + 2, c_max) + 1)]
        target = rng.choice(near) * rng.uniform(0.9, 1.1)

        curve = Curve(rates)
        crf_hat, saturated = _bisection_with_verify(curve, target, c_min, c_max)
        linear, _ = _linear_sweep(rates.__getitem__, target, c_min, c_max)
        assert len(curve.trials) == len(set(curve.trials))
        assert len(curve.trials) <= 4 + math.ceil(math.log2(c_max - c_min + 1))
        if saturated:
            assert crf_hat == c_max and rates[c_max] > target
            continue
        assert crf_hat in curve.trials and rates[crf_hat] <= target
        assert crf_hat == c_min or (crf_hat - 1 in curve.trials and rates[crf_hat - 1] > target)
        assert crf_hat >= linear
        above += crf_hat > linear
    assert above > 0  # the corpus does reach curves where the two differ
