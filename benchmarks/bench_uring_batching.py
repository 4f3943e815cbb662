"""Ring batching vs. epoll+read/write: crossings per op and throughput.

The experiment behind the io_uring subsystem.  An epoll event loop pays
one syscall crossing per ``epoll_pwait`` *plus* one per ``read``/
``write``/``accept`` the readiness unblocks; the submission/completion
ring batches all of that through one ``io_uring_enter`` per wakeup, so
the crossing cost is paid per *batch*.  Two harnesses:

* **kernel-level** (100-1000 connections, loopback and wan-1ms): a
  Python driver plays the clients; the measured server loop is either
  ``epoll_pwait`` + nonblocking ``recvfrom``-until-EAGAIN + ``sendto``
  per connection, or one ``io_uring_enter`` per batch with RECV re-arm
  + quiet SEND SQEs.  Crossings = server-side syscall invocations.
* **guest-level** (100 connections): the unmodified mini-memcached
  binary in its epoll (``-e``) vs ring (``-u``) serving mode, driven by
  the same client fleet; crossings = WALI host-function calls the
  server instance makes — the real guest<->host boundary of the paper's
  Fig. 7 / Table 2 breakdown.

Crossings per op are gated (the ring must need >= 3x fewer); throughput
is wall-clock, so it is only reported, as the median and interquartile
range of ops/s over ``REPEATS`` runs per mode.

Quick mode (``REPRO_BENCH_QUICK=1``) shrinks the sweep for CI smoke.
"""

import statistics
import time

from common import quick_mode, save_report

from repro.apps import build
from repro.kernel import (
    AF_INET, EPOLL_CTL_ADD, EPOLLIN, IORING_ENTER_SQ_WAKEUP,
    IORING_OP_RECV, IORING_OP_SEND, IORING_SETUP_SQPOLL,
    IOSQE_CQE_SKIP_SUCCESS, Kernel, KernelError, O_NONBLOCK, SOCK_STREAM,
    SQE,
)
from repro.metrics import table
from repro.wali import WaliRuntime

QUICK = quick_mode()

CONNS = (20,) if QUICK else (100, 400, 1000)
ROUNDS = 3 if QUICK else 8
BACKENDS = [("loopback", None), ("wan-1ms", "wan:latency_ms=1,seed=11")]
GUEST_CONNS = 10 if QUICK else 100
GUEST_REQS = 2 if QUICK else 4
# the SQPOLL sweep: enough simulated connections that per-request
# crossings, not setup, dominate the bill
SQPOLL_CONNS = (300,) if QUICK else (10_000,)
SQPOLL_ROUNDS = 2
# runs per mode behind each ops/s median and IQR
REPEATS = 5 if QUICK else 3


def _mk_pairs(kern, proc, n):
    pairs = []
    for _ in range(n):
        a, b = kern.call(proc, "socketpair", AF_INET, SOCK_STREAM)
        pairs.append((a, b))
    return pairs


def _drain_client(kern, proc, fd, want):
    got = b""
    while len(got) < want:
        try:
            data, _ = kern.call(proc, "recvfrom", fd, 256)
        except KernelError:
            time.sleep(0.0005)
            continue
        got += data
    return got


def _kernel_epoll(kern, proc, pairs, rounds):
    """Baseline server loop: epoll_pwait + read-until-EAGAIN + write."""
    server_calls = ("epoll_pwait", "recvfrom", "sendto", "epoll_ctl",
                    "epoll_create1")
    ep = kern.call(proc, "epoll_create1", 0)
    for srv, _cli in pairs:
        proc.fdtable.get(srv).flags |= O_NONBLOCK
        kern.call(proc, "epoll_ctl", ep, EPOLL_CTL_ADD, srv, EPOLLIN)
    kern.call(proc, "epoll_pwait", ep, len(pairs), timeout_ns=0)
    base = sum(kern.syscall_counts.get(n, 0) for n in server_calls)
    ops = 0
    t0 = time.perf_counter()
    for _ in range(rounds):
        for _srv, cli in pairs:
            kern.call(proc, "sendto", cli, b"ping")
        served = 0
        while served < len(pairs):
            ready = kern.call(proc, "epoll_pwait", ep, 64,
                              timeout_ns=2_000_000_000)
            for fd, _ev in ready:
                while True:  # nonblocking drain, like a real event loop
                    try:
                        data, _ = kern.call(proc, "recvfrom", fd, 256)
                    except KernelError:
                        break
                    if not data:
                        break
                    kern.call(proc, "sendto", fd, data)
                    served += 1
                    ops += 1
        for _srv, cli in pairs:
            _drain_client(kern, proc, cli, 4)
    elapsed = time.perf_counter() - t0
    crossings = sum(kern.syscall_counts.get(n, 0)
                    for n in server_calls) - base
    return crossings, ops, elapsed


def _kernel_ring(kern, proc, pairs, rounds):
    """Ring server loop: one io_uring_enter per batch, RECV re-arm +
    quiet SEND per served connection."""
    rfd = kern.call(proc, "io_uring_setup", 512)
    ring = proc.fdtable.get(rfd).obj
    base = kern.syscall_counts.get("io_uring_enter", 0) + \
        kern.syscall_counts.get("io_uring_setup", 0)

    def enter(sqes, min_complete=0):
        """Submit in SQ-sized chunks (the guest-side SQ-full recipe);
        the final chunk blocks for min_complete unless an earlier chunk
        already reaped completions (they drain the CQ as they submit).
        Returns the CQEs."""
        out = []
        chunks = [sqes[i:i + ring.sq_entries]
                  for i in range(0, len(sqes), ring.sq_entries)] or [[]]
        for i, chunk in enumerate(chunks):
            minc = min_complete if i == len(chunks) - 1 and not out else 0
            _sub, cqes = kern.call(proc, "io_uring_enter", rfd, chunk,
                                   minc, 2_000_000_000)
            out.extend(cqes)
        return out

    # initial arm (counts toward the ring's crossings)
    enter([SQE(IORING_OP_RECV, fd=srv, length=256, user_data=srv)
           for srv, _cli in pairs])
    ops = 0
    t0 = time.perf_counter()
    for _ in range(rounds):
        for _srv, cli in pairs:
            kern.call(proc, "sendto", cli, b"ping")
        served = 0
        batch = []
        while served < len(pairs):
            cqes = enter(batch, 1)
            batch = []
            for cqe in cqes:
                if cqe.res <= 0:
                    continue
                batch.append(SQE(IORING_OP_SEND, fd=cqe.user_data,
                                 data=cqe.data,
                                 flags=IOSQE_CQE_SKIP_SUCCESS))
                batch.append(SQE(IORING_OP_RECV, fd=cqe.user_data,
                                 length=256, user_data=cqe.user_data))
                served += 1
                ops += 1
        if batch:
            enter(batch)
        for _srv, cli in pairs:
            _drain_client(kern, proc, cli, 4)
    elapsed = time.perf_counter() - t0
    crossings = kern.syscall_counts.get("io_uring_enter", 0) + \
        kern.syscall_counts.get("io_uring_setup", 0) - base
    return crossings, ops, elapsed


def _kernel_sqpoll(kern, proc, pairs, rounds):
    """SQPOLL server loop: SQEs land in the shared SQ queue by plain
    stores (the driver appends — the guest-store analog), the kernel
    poller submits them, and CQEs are read straight off the shared CQ
    ring.  The only crossings ever paid are the setup call and a
    NEED_WAKEUP kick when the poller idled out."""
    counted = ("io_uring_enter", "io_uring_setup", "io_uring_register")
    rfd = kern.call(proc, "io_uring_setup", 1024, IORING_SETUP_SQPOLL,
                    500.0)
    ring = proc.fdtable.get(rfd).obj
    base = sum(kern.syscall_counts.get(n, 0) for n in counted)

    def push(sqes):
        ring.sq_queue.extend(sqes)
        if ring.sq_need_wakeup:  # visible in the shared header
            kern.call(proc, "io_uring_enter", rfd, (), 0, None, 0,
                      IORING_ENTER_SQ_WAKEUP)

    push([SQE(IORING_OP_RECV, fd=srv, length=256, user_data=srv)
          for srv, _cli in pairs])
    ops = 0
    t0 = time.perf_counter()
    for _ in range(rounds):
        for _srv, cli in pairs:
            kern.call(proc, "sendto", cli, b"ping")
        served = 0
        deadline = time.perf_counter() + 120
        while served < len(pairs):
            cqes = ring.reap(4096)
            if not cqes:
                if ring.sq_need_wakeup and ring.sq_pending():
                    push([])  # the poller parked under queued work
                assert time.perf_counter() < deadline, served
                time.sleep(0.00005)  # CQ-ring poll, like a real guest
                continue
            batch = []
            for cqe in cqes:
                if cqe.res <= 0:
                    continue
                batch.append(SQE(IORING_OP_SEND, fd=cqe.user_data,
                                 data=cqe.data,
                                 flags=IOSQE_CQE_SKIP_SUCCESS))
                batch.append(SQE(IORING_OP_RECV, fd=cqe.user_data,
                                 length=256, user_data=cqe.user_data))
                served += 1
                ops += 1
            push(batch)
        for _srv, cli in pairs:
            _drain_client(kern, proc, cli, 4)
    elapsed = time.perf_counter() - t0
    crossings = sum(kern.syscall_counts.get(n, 0) for n in counted) - base
    kern.call(proc, "close", rfd)
    return crossings, ops, elapsed


def _summarize(runs):
    """Fold repeated runs into medians, plus the IQR of ops/s (wall-clock
    noise from timer threads and the scheduler)."""
    ops = [r["ops_s"] for r in runs]
    q1, median, q3 = statistics.quantiles(ops, n=4, method="inclusive")
    return {"crossings_per_op": statistics.median(
                r["crossings_per_op"] for r in runs),
            "ops_s": median, "ops_s_iqr": q3 - q1}


def _kernel_level(spec, nconns, rounds):
    out = {}
    for mode, fn in (("epoll", _kernel_epoll), ("ring", _kernel_ring)):
        runs = []
        for _ in range(REPEATS):
            kern = Kernel(net_backend=spec) if spec else Kernel()
            proc = kern.create_process(["bench"])
            proc.fdtable.max_fds = 4096
            pairs = _mk_pairs(kern, proc, nconns)
            crossings, ops, elapsed = fn(kern, proc, pairs, rounds)
            runs.append({"crossings_per_op": crossings / ops,
                         "ops_s": ops / elapsed})
        out[mode] = _summarize(runs)
    return out


def _guest_memcached(mode, nconns, reqs):
    return _summarize([_guest_memcached_once(mode, nconns, reqs)
                       for _ in range(REPEATS)])


def _guest_memcached_once(mode, nconns, reqs):
    """The unmodified mini-memcached guest in one serving mode; the
    client fleet is driven from Python so only server crossings count."""
    rt = WaliRuntime()
    server = rt.load(build("mini_memcached"),
                     argv=["memcached", "11211", mode])
    server.start_in_thread()
    for _ in range(500):
        if b"ready" in rt.kernel.console_output():
            break
        time.sleep(0.01)
    k = rt.kernel
    cp = k.create_process(["pyclient"])
    fds = []
    for _ in range(nconns):
        fd = k.call(cp, "socket", AF_INET, SOCK_STREAM)
        k.call(cp, "connect", fd, ("127.0.0.1", 11211))
        fds.append(fd)

    def recvline(fd):
        out = b""
        while not out.endswith(b"\n"):
            data, _ = k.call(cp, "recvfrom", fd, 256)
            if not data:
                break
            out += data
        return out.decode().strip()

    base = sum(server.host.call_counts.values())
    ops = 0
    t0 = time.perf_counter()
    for r in range(reqs):
        for i, fd in enumerate(fds):
            k.call(cp, "sendto", fd, f"set k{i} v{r}\n".encode())
        for fd in fds:
            assert recvline(fd) == "STORED"
        for i, fd in enumerate(fds):
            k.call(cp, "sendto", fd, f"get k{i}\n".encode())
        for r2, fd in enumerate(fds):
            assert recvline(fd) == f"VALUE v{r}"
        ops += 2 * nconns
    elapsed = time.perf_counter() - t0
    crossings = sum(server.host.call_counts.values()) - base
    k.call(cp, "sendto", fds[0], b"shutdown\n")
    assert recvline(fds[0]) == "BYE"
    server.join(5)
    return {"crossings_per_op": crossings / ops, "ops_s": ops / elapsed}


def test_uring_batching(benchmark):
    def sweep():
        results = {"kernel": {}, "guest": {}}
        for label, spec in BACKENDS:
            for n in CONNS:
                results["kernel"][(label, n)] = _kernel_level(
                    spec, n, ROUNDS)
        for mode, flag in (("epoll", "-e"), ("ring", "-u")):
            results["guest"][mode] = _guest_memcached(
                flag, GUEST_CONNS, GUEST_REQS)
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    def row(config, ep, ur):
        return (config,
                f"{ep['crossings_per_op']:7.2f}",
                f"{ur['crossings_per_op']:7.2f}",
                f"{ep['crossings_per_op'] / ur['crossings_per_op']:6.1f}x",
                f"{ep['ops_s']:9.0f} ±{ep['ops_s_iqr']:7.0f}",
                f"{ur['ops_s']:9.0f} ±{ur['ops_s_iqr']:7.0f}")

    rows = [row(f"{label}@{n}", modes["epoll"], modes["ring"])
            for (label, n), modes in results["kernel"].items()]
    gep, gur = results["guest"]["epoll"], results["guest"]["ring"]
    rows.append(row(f"guest-mc@{GUEST_CONNS}", gep, gur))
    out = [
        table(["config", "ep x/op", "ring x/op", "ratio",
               "ep ops/s ±IQR", "ring ops/s ±IQR"], rows),
        "",
        "crossings/op = server-side syscall (kernel rows) or WALI",
        "host-call (guest row) invocations per served echo/request.",
        "the epoll loop pays epoll_pwait + read-until-EAGAIN + one write",
        "per reply fragment; the ring pays one io_uring_enter per batch",
        "(RECV re-arm + reply SEND ride the submission queue).",
        f"ops/s = median and interquartile range over {REPEATS} runs per",
        "mode; wall-clock, so reported, not gated.",
    ]
    save_report("uring_batching.txt", "\n".join(out))

    # the acceptance bar: >= 3x fewer crossings per op at every scale
    for key, modes in results["kernel"].items():
        ratio = modes["epoll"]["crossings_per_op"] / \
            modes["ring"]["crossings_per_op"]
        assert ratio >= 3.0, (key, modes)
    guest_ratio = gep["crossings_per_op"] / gur["crossings_per_op"]
    assert guest_ratio >= 3.0, results["guest"]


def test_uring_sqpoll_sweep(benchmark):
    """The zero-crossing serving path at scale: enter-per-batch ring vs
    SQPOLL (shared-queue submission, kernel-side poller) on the same
    echo workload."""
    def sweep():
        out = {}
        for n in SQPOLL_CONNS:
            per = {}
            for mode, fn in (("ring", _kernel_ring),
                             ("sqpoll", _kernel_sqpoll)):
                best = None
                for _ in range(2):  # best-of-2, like _kernel_level
                    kern = Kernel()
                    proc = kern.create_process(["bench"])
                    proc.fdtable.max_fds = 65536
                    pairs = _mk_pairs(kern, proc, n)
                    crossings, ops, elapsed = fn(kern, proc, pairs,
                                                 SQPOLL_ROUNDS)
                    if best is None or ops / elapsed > best["ops_s"]:
                        best = {"crossings_per_op": crossings / ops,
                                "ops_s": ops / elapsed}
                per[mode] = best
            out[n] = per
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    for n, per in results.items():
        ur, sq = per["ring"], per["sqpoll"]
        rows.append((f"echo@{n}",
                     f"{ur['crossings_per_op']:9.4f}",
                     f"{sq['crossings_per_op']:9.4f}",
                     f"{ur['ops_s']:9.0f}", f"{sq['ops_s']:9.0f}"))
    out = [
        table(["config", "ring x/op", "sqpoll x/op",
               "ring ops/s", "sqpoll ops/s"], rows),
        "",
        "ring   = one blocking io_uring_enter per batch (PR 3 path).",
        "sqpoll = SQEs stored into the shared SQ queue, drained by the",
        "kernel poller task; completions read off the shared CQ ring.",
        "sqpoll crossings = setup + NEED_WAKEUP kicks only — the serving",
        "loop itself never crosses.",
    ]
    save_report("uring_sqpoll.txt", "\n".join(out))

    # acceptance: under load the SQPOLL path pays < 0.05 crossings per
    # request (vs ~1+ for enter-per-batch at low batch occupancy) at
    # parity-or-better throughput.  The quick smoke runs 300 conns where
    # host-thread noise dominates, so only the full sweep holds the 0.9
    # parity bar tight.
    parity = 0.7 if QUICK else 0.9
    for n, per in results.items():
        assert per["sqpoll"]["crossings_per_op"] < 0.05, (n, per)
        assert per["sqpoll"]["ops_s"] >= per["ring"]["ops_s"] * parity, \
            (n, per)
