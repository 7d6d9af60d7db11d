"""Runtime-suite fixtures: the shared-memory leak reaper, and a guard
that keeps an environment fault plan away from byte-level checkpoint
checks.

The runtime layer's whole premise is that the *parent* owns every
``/dev/shm`` block it publishes — workers attach untracked, dead
workers cannot leak, and every pool/executor teardown path unlinks what
it created. This fixture enforces that premise at the suite grain:
any ``psm_*`` block that survives the runtime tests (after the default
pools are shut down and abandoned pools garbage-collected) is a
teardown bug, reported as a failure — and reaped, so one leak cannot
poison later suites or fill ``/dev/shm`` across CI runs.
"""

from __future__ import annotations

import gc
from pathlib import Path

import pytest

_SHM_DIR = Path("/dev/shm")


def _shm_blocks() -> set[str]:
    if not _SHM_DIR.is_dir():  # non-Linux: nothing observable to reap
        return set()
    return {path.name for path in _SHM_DIR.glob("psm_*")}


@pytest.fixture(scope="session", autouse=True)
def shared_memory_leak_reaper():
    """Assert the runtime suite unlinks every shared-memory block."""
    before = _shm_blocks()
    yield
    from repro.runtime.pool import reset_default_pools

    reset_default_pools()
    # Abandoned SharedArrayPool instances clean up via __del__; force
    # the collection so a leak report means a real teardown gap, not
    # pending garbage.
    gc.collect()
    leaked = sorted(_shm_blocks() - before)
    for name in leaked:
        try:
            (_SHM_DIR / name).unlink()
        except OSError:
            pass
    assert not leaked, (
        f"runtime suite leaked {len(leaked)} shared-memory block(s) "
        f"(reaped): {leaked}"
    )


@pytest.fixture
def no_env_faults(monkeypatch):
    """Run the test without a ``REPRO_FAULTS`` environment plan.

    A fault plan from the environment (a chaos run's) tears the first
    cell file the process writes, whichever test writes it. Tests that
    read a cell file's bytes, or assert that a resume is a pure replay,
    would then check recovery instead of what they name; recovery from
    torn files has its own tests in ``test_faults.py`` and
    ``test_checkpoint.py``.
    """
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
