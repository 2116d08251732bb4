"""The batch loop that estimate, emulate and mock-platform all run through."""

import logging
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import snvse.runner
from snvse.errors import EncoderFailure
from snvse.runner import Outcome, run_batch, run_tool


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


def test_tools_read_no_stdin():
    # Even with a readable stdin (a pipe here, a terminal under job control),
    # a tool's stdin is /dev/null.
    same = ("import os; a, b = os.fstat(0), os.stat('/dev/null'); "
            "print((a.st_dev, a.st_ino) == (b.st_dev, b.st_ino))")
    read, write = os.pipe()
    saved = os.dup(0)
    os.dup2(read, 0)
    try:
        result = run_tool([sys.executable, "-c", same])
    finally:
        os.dup2(saved, 0)
        for fd in (saved, read, write):
            os.close(fd)
    assert (result.returncode, result.stdout) == (0, "True\n")


def test_interrupted_pool_starts_no_further_tool(tmp_path):
    # Item 0 interrupts the batch while item 1 runs a long tool; item 1's
    # tool is terminated and its next tool never starts.
    sleeper = [sys.executable, "-c", "import time; time.sleep(30)"]
    marker = tmp_path / "second-tool-ran"
    toucher = [sys.executable, "-c", f"open({str(marker)!r}, 'w').close()"]
    started, finished = threading.Event(), threading.Event()

    def work(n):
        if n == 0:
            started.wait(5)
            time.sleep(0.2)  # let the sleeper start
            raise KeyboardInterrupt
        try:
            started.set()
            run_tool(sleeper)
            run_tool(toucher)
        finally:
            finished.set()

    began = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_batch(work, [0, 1], workers=2)
    assert finished.wait(10)
    assert time.monotonic() - began < 10
    assert not marker.exists()

    # The interrupt belonged to that pool: a later batch runs its tools.
    outcomes = run_batch(lambda n: run_tool(toucher).returncode, [0], workers=1)
    assert outcomes == [Outcome(0, result=0)]
    assert marker.exists()


def test_interrupted_item_is_not_logged_as_failed(caplog):
    # Item 1's tool is terminated by item 0's interrupt, and its work turns
    # the terminated tool into an EncoderFailure, as an encode does.
    sleeper = [sys.executable, "-c", "import time; time.sleep(30)"]
    started = threading.Event()

    def work(n):
        if n == 0:
            started.wait(5)
            time.sleep(0.2)  # let the sleeper start
            raise KeyboardInterrupt
        started.set()
        result = run_tool(sleeper)
        if result.returncode != 0:
            raise EncoderFailure(f"encoder exited {result.returncode}")

    with caplog.at_level(logging.DEBUG, logger="snvse.runner"):
        with pytest.raises(KeyboardInterrupt):
            run_batch(work, [0, 1], workers=2)
        # Item 1's slot reports after the pool has re-raised; wait for it.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            reports = [r for r in caplog.records if r.getMessage().startswith("1 ")]
            if reports:
                break
            time.sleep(0.01)
    assert [(r.levelno, r.getMessage()) for r in reports] == [
        (logging.DEBUG, f"1 interrupted: EncoderFailure: encoder exited {-signal.SIGTERM}"),
    ]
    assert not [r for r in caplog.records if r.levelno >= logging.ERROR]


def test_an_interrupted_wait_kills_and_reaps_its_tool(monkeypatch):
    # An interrupt that reaches run_tool while it waits propagates, and the
    # tool it started does not outlive the call.
    sleeper = [sys.executable, "-c", "import time; time.sleep(30)"]
    waited = []

    def interrupted(self, *args, **kwargs):
        waited.append(self)
        raise KeyboardInterrupt

    monkeypatch.setattr(subprocess.Popen, "communicate", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_tool(sleeper)
    [proc] = waited
    assert proc.returncode == -signal.SIGKILL
    proc.stdout.close()
    proc.stderr.close()


def test_a_tool_that_ignores_sigterm_is_killed_after_the_grace_period(monkeypatch, tmp_path):
    # One process, no shell: killing a shell would orphan its child. The
    # tool writes its pid once it ignores SIGTERM; the stop flag is set then.
    marker = tmp_path / "pid"
    stubborn = [sys.executable, "-c",
                "import os, signal, time; signal.signal(signal.SIGTERM, signal.SIG_IGN); "
                f"open({str(marker)!r}, 'w').write(str(os.getpid())); time.sleep(30)"]
    stop = threading.Event()
    monkeypatch.setattr(snvse.runner._worker, "stop", stop)
    stopped = []

    def stop_once_started():
        while not marker.exists() or not marker.read_text():
            time.sleep(0.01)
        stopped.append(time.monotonic())
        stop.set()

    threading.Thread(target=stop_once_started, daemon=True).start()
    result = run_tool(stubborn)
    assert result.returncode == -signal.SIGKILL
    assert time.monotonic() - stopped[0] <= snvse.runner._GRACE_S + 1
    with pytest.raises(ProcessLookupError):
        os.kill(int(marker.read_text()), 0)
