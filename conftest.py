"""Test bootstrap: make ``src/`` importable without an installed wheel.

The benchmark environment has no network, so ``pip install -e .`` cannot
fetch the PEP 517 build backend; this path shim is the offline equivalent.

Also home of three fixtures:

* ``lost_wakeup_guard`` (autouse) fails any test whose kernels recorded a
  ``sched.safety_net_wakeups`` count: a blocked task that woke only
  because its safety slice ran out.  Every kernel counts it, including
  one booted with tracing ablated (``Kernel(trace="off")``).
* ``wan_seed``: every test that builds a WAN backend derives its
  impairment seed from here, so jitter/loss/reorder decisions are
  bit-reproducible run-to-run (per-flow RNG streams in
  ``kernel/net/wan.py``) yet decorrelated across tests.
* ``wali_processes``: every ``WaliProcess`` the test made, in the order
  they were made.  ``WaliRuntime.processes`` drops a process once its task
  is reaped, so a test that inspects exited children or threads reads
  them from here.
"""

import os
import sys
import zlib

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "src"))


@pytest.fixture(autouse=True)
def lost_wakeup_guard(monkeypatch):
    """Fail the test if a kernel it built lost a wakeup.

    ``Kernel.wait_event`` counts every wait that only its 50 ms safety
    slice ended: the awaited state changed, but nothing kicked the task.
    """
    from repro.kernel.kernel import Kernel

    kernels = []
    init = Kernel.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        kernels.append(self)

    monkeypatch.setattr(Kernel, "__init__", tracking_init)
    yield
    lost = sum(k.counters.get("sched.safety_net_wakeups") for k in kernels)
    if lost:
        pytest.fail(f"{lost} wakeup(s) recovered only by the safety slice "
                    "(sched.safety_net_wakeups)")


@pytest.fixture
def wan_seed(request):
    """Deterministic per-test WAN impairment seed.

    Derived from the test's node id (stable across runs and workers, no
    wall-clock or hash-randomization input), so a failing impairment
    pattern can always be replayed exactly by re-running the test.
    """
    return zlib.crc32(request.node.nodeid.encode())


@pytest.fixture
def wali_processes(monkeypatch):
    """Every WALI process made while the test runs, reaped ones included."""
    from repro.wali import WaliProcess

    made = []
    init = WaliProcess.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(WaliProcess, "__init__", recording_init)
    return made
