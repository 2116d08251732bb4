"""The batch loop that estimate, emulate and mock-platform all run through."""

import logging
import time

import pytest

from snvse.errors import EncoderFailure
from snvse.runner import Outcome, run_batch


def test_run_batch_keeps_order_and_captures_item_errors(caplog):
    def work(n):
        time.sleep(0.01 * (3 - n))  # later items finish first
        if n == 1:
            raise EncoderFailure("encoder exited 1")
        if n == 3:
            raise FileNotFoundError("gone.mp4")
        return n * 10

    with caplog.at_level(logging.ERROR, logger="snvse.runner"):
        outcomes = run_batch(work, [0, 1, 2, 3], workers=4)
    assert outcomes == [
        Outcome(0, result=0),
        Outcome(1, error="EncoderFailure: encoder exited 1"),
        Outcome(2, result=20),
        Outcome(3, error="FileNotFoundError: gone.mp4"),
    ]
    assert [o.ok for o in outcomes] == [True, False, True, False]
    assert len(caplog.records) == 2


def test_run_batch_propagates_other_exceptions():
    # A programming error is not an item failure: it fails the batch.
    def work(n):
        return {}[n]

    with pytest.raises(KeyError):
        run_batch(work, [0, 1], workers=2)
