"""Subprocess execution for the external prober/encoder.

Every invocation logs its exact argument list at DEBUG (forensic
reproducibility), and live processes are tracked so an interrupt can
terminate them and the caller can clean up partial outputs.
"""

from __future__ import annotations

import logging
import shlex
import subprocess
import threading
from concurrent.futures import ThreadPoolExecutor

logger = logging.getLogger(__name__)

_ACTIVE: set[subprocess.Popen] = set()
_ACTIVE_LOCK = threading.Lock()


def run_tool(argv: list[str]) -> subprocess.CompletedProcess:
    """Run one tool invocation, capturing stdout/stderr as text.

    Does not raise on nonzero exit; callers interpret the return code so
    they can attach domain-specific diagnostics.
    """
    logger.debug("exec: %s", shlex.join(argv))
    proc = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    with _ACTIVE_LOCK:
        _ACTIVE.add(proc)
    try:
        stdout, stderr = proc.communicate()
    finally:
        with _ACTIVE_LOCK:
            _ACTIVE.discard(proc)
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return subprocess.CompletedProcess(argv, proc.returncode, stdout, stderr)


def terminate_active() -> int:
    """Terminate all in-flight tool processes (used on user interrupt)."""
    with _ACTIVE_LOCK:
        procs = list(_ACTIVE)
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    return len(procs)


def run_pool(work, items, workers: int) -> list:
    """Order-preserving bounded map over *items*.

    On interrupt, pending items are cancelled and in-flight tool processes
    terminated, so the pool unwinds promptly instead of draining encodes.
    """
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        results = list(pool.map(work, items))
    except BaseException:
        pool.shutdown(wait=False, cancel_futures=True)
        terminate_active()
        raise
    pool.shutdown(wait=True)
    return results
