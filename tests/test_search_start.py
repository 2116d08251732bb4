"""The bisection from a start: the CRF a shared video states, on synthetic rate curves.

From any start in the range the search must return what the linear sweep
returns on every non-increasing curve, leave the minimality witness in its
trials, and stay within the cold search's trial bound. Without a start it
is the cold search from c_max, trial for trial.
"""

import hashlib
import math
import random

from hypothesis import example, given, strategies as st

from snvse.estimator import CRF_PER_HALVING, _bisection_with_verify, _linear_sweep

from test_search import Curve, _log_linear, _seeded_search, searches


def _cold_bound(c_min, c_max):
    return 4 + math.ceil(math.log2(c_max - c_min + 1))


def _search_from(rates, target, c_min, c_max, start):
    """Run the bisection from *start* on *rates*, check it against the linear
    sweep, and return its trials."""
    curve = Curve(rates)
    crf_hat, saturated = _bisection_with_verify(curve, target, c_min, c_max, start=start)

    assert (crf_hat, saturated) == _linear_sweep(rates.__getitem__, target, c_min, c_max)
    assert curve.trials[0] == (c_max if start is None else start)
    assert len(curve.trials) == len(set(curve.trials))
    assert all(c_min <= crf <= c_max for crf in curve.trials)
    assert len(curve.trials) <= _cold_bound(c_min, c_max)
    # The witness: crf_hat's own trial, and the failing trial just below it
    # unless crf_hat is the floor of the range (or saturated at the top).
    assert crf_hat in curve.trials
    if saturated:
        assert rates[c_max] > target
    else:
        assert rates[crf_hat] <= target
        if crf_hat > c_min:
            assert crf_hat - 1 in curve.trials
            assert rates[crf_hat - 1] > target
    return curve.trials


@given(searches(), st.floats(0.0, 1.0))
# A start that fails far below a crossing on a 10-CRF-per-halving curve:
# the model, at 6 CRF per halving, predicts upward short of it.
@example((_log_linear(21, 50, 10.0, 45.0), 1e5, 21, 50), 0.0)
# Starts at each end of a saturated range, and at c_min under a target no
# rate meets, where the model has no log-rate and splits the bracket.
@example((_log_linear(21, 50, 6.0, 60.0), 1e5, 21, 50), 0.0)
@example((_log_linear(21, 50, 6.0, 60.0), 1e5, 21, 50), 1.0)
@example(({c: 0.0 if c > 40 else 1e6 for c in range(21, 51)}, -1.0, 21, 50), 0.0)
def test_any_start_keeps_the_sweeps_answer(case, where):
    rates, target, c_min, c_max = case
    start = c_min + round(where * (c_max - c_min))
    _search_from(rates, target, c_min, c_max, start)


def test_seeded_corpus_from_starts_near_the_answer():
    # Starts up to 8 CRF either side of the answer, as a rounded or stale
    # stated CRF gives them: within the cold bound on every curve, and no
    # more trials than the cold search in total.
    rng = random.Random(20261020)
    totals = {"cold": 0, "started": 0}
    for _ in range(3000):
        rates, target, c_min, c_max = _seeded_search(rng)
        answer, _ = _linear_sweep(rates.__getitem__, target, c_min, c_max)
        start = min(max(answer + rng.randint(-8, 8), c_min), c_max)
        totals["cold"] += len(_search_from(rates, target, c_min, c_max, None))
        totals["started"] += len(_search_from(rates, target, c_min, c_max, start))
    assert totals["started"] < totals["cold"], totals


def test_exact_start_on_a_log_linear_curve_takes_two_trials():
    # The stated CRF rounded up is the answer: it passes, and the model puts
    # the crossing below it, so the failing CRF under it is the only other
    # trial. A crossing at or below c_min needs only c_min; above c_max,
    # only c_max, which fails.
    for crossing in (c / 4 for c in range(19 * 4, 52 * 4 + 1)):
        start = min(max(math.ceil(crossing), 21), 50)
        trials = _search_from(_log_linear(21, 50, CRF_PER_HALVING, crossing), 1e5, 21, 50, start)
        if 21 < crossing <= 50:
            assert trials == [start, start - 1], crossing
        else:
            assert trials == [start], crossing


def test_no_start_is_the_cold_search():
    # The trial sequences and answers of the search from c_max on a seeded
    # corpus, as the search that always started there gave them.
    rng = random.Random(33)
    digest = hashlib.sha256()
    for _ in range(1000):
        rates, target, c_min, c_max = _seeded_search(rng)
        curve = Curve(rates)
        result = _bisection_with_verify(curve, target, c_min, c_max)
        assert _bisection_with_verify(Curve(rates), target, c_min, c_max, start=c_max) == result
        digest.update(repr((curve.trials, result)).encode())
    assert digest.hexdigest() == "117a0e9b875878b35da62115988a761ae431c4dfae670c6f9d50f061651f36a5"


def test_a_passing_start_below_a_failing_c_max_is_not_saturated():
    # A rate that rises at the top of the range, as encoder noise can make
    # it: c_max fails though every CRF from 33 to 49 passes. From c_max the
    # search reads the pair as saturated; from the stated CRF it never
    # trials c_max, and its answer passes with its witness.
    rates = _log_linear(21, 50, CRF_PER_HALVING, 33.0)
    rates[50] = 2e5
    cold = Curve(rates)
    assert _bisection_with_verify(cold, 1e5, 21, 50) == (50, True)
    assert cold.trials == [50]
    started = Curve(rates)
    assert _bisection_with_verify(started, 1e5, 21, 50, start=33) == (33, False)
    assert started.trials == [33, 32]
    assert rates[33] <= 1e5 < rates[32]


def test_seeded_rising_curves_from_a_passing_start_keep_a_witnessed_answer():
    # test_search's rising-curve corpus, each searched from a passing CRF
    # below c_max: the answer passes with a failing CRF (or the range's
    # floor) below it, and is never saturated, whatever c_max reads.
    rng = random.Random(18)
    searched = 0
    for _ in range(2000):
        rates, _, c_min, c_max = _seeded_search(rng)
        bump_at = rng.randint(c_min + 1, c_max)
        window = range(bump_at, min(bump_at + rng.randint(1, 4), c_max + 1))
        if not rates[bump_at] > 0:  # underflowed to 0: no ratio to bump by
            continue
        bump = rates[bump_at - 1] / rates[bump_at] * rng.uniform(1.01, 1.5)
        rates.update({c: rates[c] * bump for c in window})
        target = rng.choice(list(rates.values())) * rng.uniform(0.9, 1.1)
        passing = [c for c in range(c_min, c_max) if rates[c] <= target]
        if not passing:
            continue
        start = rng.choice(passing)
        curve = Curve(rates)
        crf_hat, saturated = _bisection_with_verify(curve, target, c_min, c_max, start=start)
        assert not saturated and c_max not in curve.trials
        assert len(curve.trials) == len(set(curve.trials))
        assert len(curve.trials) <= _cold_bound(c_min, c_max)
        assert crf_hat in curve.trials and rates[crf_hat] <= target
        assert crf_hat == c_min or (crf_hat - 1 in curve.trials and rates[crf_hat - 1] > target)
        searched += 1
    assert searched > 1000
