"""Subprocess execution for the external prober/encoder, and the batch loop.

Every invocation logs its exact argument list at DEBUG (forensic
reproducibility). Each tool process has one owner, the ``run_tool`` call
that started it, which terminates it within one poll of an interrupt,
killing it after a grace period, so the caller can clean up partial
outputs; an interrupted pool starts no further tool. Every batch runs
through ``run_batch``, every name derived from a file's stem is checked
for collisions by ``by_stem``, and every output path is checked against
the inputs by ``refuse_overwrite``.
"""

from __future__ import annotations

import logging
import shlex
import signal
import subprocess
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .errors import PreconditionViolation, SnvseError

logger = logging.getLogger(__name__)

_POLL_S = 0.1  # how often a running tool's owner checks its pool's stop flag
_GRACE_S = 2.0  # how long a terminated tool may take to exit before it is killed


class _Worker(threading.local):
    stop = threading.Event()  # never set; run_pool gives each worker its pool's


_worker = _Worker()


def run_tool(argv: list[str]) -> subprocess.CompletedProcess:
    """Run one tool invocation on an empty stdin, capturing stdout/stderr as text.

    Does not raise on nonzero exit; callers interpret the return code so
    they can attach domain-specific diagnostics. The call owns its process:
    in an interrupted pool's worker the tool does not start (the result
    reads as a terminated tool's) or is terminated within one poll, then
    killed if it has not exited ``_GRACE_S`` later.
    """
    if _worker.stop.is_set():
        return subprocess.CompletedProcess(argv, -signal.SIGTERM, "", "interrupted")
    logger.debug("exec: %s", shlex.join(argv))
    # No tool reads stdin: ffmpeg would read it for its interactive keys,
    # and a background job that reads its terminal is stopped (SIGTTIN).
    proc = subprocess.Popen(
        argv,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        errors="replace",  # ffmpeg quotes file names, which need not be UTF-8
    )
    try:
        while not _worker.stop.is_set():
            try:
                stdout, stderr = proc.communicate(timeout=_POLL_S)
                break
            except subprocess.TimeoutExpired:
                pass  # retrying loses no output
        else:
            proc.terminate()
            try:
                stdout, stderr = proc.communicate(timeout=_GRACE_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                stdout, stderr = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return subprocess.CompletedProcess(argv, proc.returncode, stdout, stderr)


def run_pool(work, items, workers: int) -> list:
    """Order-preserving bounded map over *items*.

    On interrupt, pending items are cancelled and the pool's stop flag is
    set, which each worker's ``run_tool`` reads within one poll, so the
    pool unwinds promptly instead of draining encodes.
    """
    stop = threading.Event()
    pool = ThreadPoolExecutor(max_workers=workers, initializer=setattr, initargs=(_worker, "stop", stop))
    try:
        results = list(pool.map(work, items))
    except BaseException:
        stop.set()
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown(wait=True)
    return results


@dataclass(frozen=True)
class Outcome:
    """One batch slot: the item, and either its work's result or its error."""

    item: object
    result: object = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def run_batch(work, items, workers: int) -> list[Outcome]:
    """Run *work* on every item through ``run_pool``, one Outcome per item, in order.

    An item whose work raises SnvseError or OSError records it in its slot
    as ``"Type: message"`` and logs that string at ERROR, the item's one
    report; any other exception propagates. An item whose tool the pool's
    interrupt terminated was interrupted, not failed, and is logged only at
    DEBUG.
    """
    def slot(item) -> Outcome:
        try:
            return Outcome(item, result=work(item))
        except (SnvseError, OSError) as exc:
            error = f"{type(exc).__name__}: {exc}"
            if _worker.stop.is_set():
                logger.debug("%s interrupted: %s", item, error)
            else:
                logger.error("%s failed: %s", item, error)
            return Outcome(item, error=error)

    return run_pool(slot, items, workers)


def by_stem(paths) -> dict[str, Path]:
    """Map each path to its stem; raise PreconditionViolation if two share one."""
    named: dict[str, Path] = {}
    for path in map(Path, paths):
        if path.stem in named:
            raise PreconditionViolation(f"{named[path.stem]} and {path} share a stem")
        named[path.stem] = path
    return named


def refuse_overwrite(outputs, inputs) -> None:
    """Raise PreconditionViolation if one of *outputs* resolves to one of *inputs*."""
    resolved = {Path(path).resolve(): path for path in inputs}
    for output in outputs:
        if (path := resolved.get(Path(output).resolve())) is not None:
            raise PreconditionViolation(f"output {output} is the input {path}")
