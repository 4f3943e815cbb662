"""The one bounded ring under contention: trace, perf and inotify rings
pushed from several writer threads while one reader drains them.

Whatever the interleaving, the ring holds at most ``capacity`` records
plus one overflow marker, never two markers, and every push is either
read as a record or counted by a marker that is read.
"""

import sys
import threading
import time

import pytest

from repro.kernel import (
    IN_MODIFY, IN_Q_OVERFLOW, Inotify, KernelError, PerfRing, TraceBuffer,
    decode_events, decode_perf_records, decode_records,
)
from repro.kernel.errno import EAGAIN
from repro.kernel.perf import encode_sample
from repro.kernel.trace import TRACE_DROP_ID, TraceEvent

CAPACITY = 8
WRITERS = 4
PUSHES = 400


class _Node:
    is_dir = False
    nlink = 1
    watches = None


def trace_case():
    ring = TraceBuffer(capacity=CAPACITY)

    def push(w, i):
        ring.push(TraceEvent(i, 0, 0, w, i, "w"))

    def read(data):
        recs = decode_records(data)
        return (sum(1 for r in recs if not r.is_drop_marker),
                [r.arg for r in recs if r.is_drop_marker])

    return ring, push, ring.read_step, read, \
        lambda rec: rec.id == TRACE_DROP_ID


def perf_case():
    ring = PerfRing(capacity=CAPACITY)

    def push(w, i):
        ring.push(encode_sample(i, w, 0, 0, ("f",)))

    def read(data):
        recs = decode_perf_records(data)
        return (sum(1 for r in recs if not r.is_lost_marker),
                [r.lost for r in recs if r.is_lost_marker])

    return ring, push, ring.read_step, read, \
        lambda rec: decode_perf_records(rec)[0].is_lost_marker


def inotify_case():
    ino = Inotify(max_queued=CAPACITY)
    watch = ino.watches[ino.add_watch(_Node(), IN_MODIFY)]

    def push(w, i):
        # distinct names: no push merges into the queue tail
        ino.publish(watch, IN_MODIFY, name=f"w{w}-{i}")

    def read(data):
        evs = decode_events(data)
        # the IN_Q_OVERFLOW record carries no count on the wire
        return (sum(1 for ev in evs if ev[0] != -1),
                [None for ev in evs if ev[0] == -1])

    return ino.queue, push, ino.read_step, read, \
        lambda rec: bool(rec.mask & IN_Q_OVERFLOW)


@pytest.fixture
def contended():
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(old)


@pytest.mark.parametrize("case", [trace_case, perf_case, inotify_case],
                         ids=["trace", "perf", "inotify"])
def test_contended_ring_keeps_its_bound_and_accounts_for_every_push(
        case, contended):
    ring, push, read_step, read, is_marker = case()
    done = threading.Event()
    kept = 0
    counts = []
    worst_records = worst_markers = 0

    def writer(w):
        for i in range(PUSHES):
            push(w, i)
            if i % 4 == 0:
                time.sleep(0)   # let the reader in mid-burst

    def drain() -> bool:
        nonlocal kept, worst_records, worst_markers
        snapshot = ring.records()
        markers = sum(1 for rec in snapshot if is_marker(rec))
        worst_records = max(worst_records, len(snapshot) - markers)
        worst_markers = max(worst_markers, markers)
        try:
            data = read_step(4096)
        except KernelError as exc:
            assert exc.errno == EAGAIN
            return False
        n, lost = read(data)
        kept += n
        counts.extend(lost)
        return True

    def reader():
        while not done.is_set():
            drain()
        while drain():
            pass

    threads = [threading.Thread(target=writer, args=(w,))
               for w in range(WRITERS)]
    drainer = threading.Thread(target=reader)
    drainer.start()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    done.set()
    drainer.join()

    assert worst_records <= CAPACITY
    assert worst_markers <= 1
    assert len(ring) == 0
    assert ring.total == WRITERS * PUSHES
    # a marker was read exactly when some push was dropped; inotify's
    # marker carries no count, so the ring's tally stands in for it
    assert bool(counts) == (ring.dropped > 0)
    swallowed = ring.dropped if None in counts else sum(counts)
    assert swallowed == ring.dropped
    assert kept + swallowed == ring.total
