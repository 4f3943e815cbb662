#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark itself.

    python3 walibench/selftest.py

Checks that every workload completes untraced and traced, that its
traced self times add up to the guest threads' wall time within 10%,
that each correctness check rejects a deliberately wrong reference, that
``wasm.instructions`` repeats exactly for the same seed on the
deterministic workloads, that a lost readiness edge (kv) and a hung op
(shell) are counted as failed without hanging the run, and that
``BENCHMARK.json`` declares exactly the metrics ``run.py`` reports.
Takes about half a minute.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

workloads, Tracer = run.load_modules()

TINY = {
    "lua": {"iters": 20},
    "shell": {"pairs": 2},
    "sqlite": {"inserts": 100, "strata": 8, "misses": 2},
    "kv": {"conns": 2, "keys_per_conn": 8},
    "echo": {"echoes": 80},
}
SECONDS = 0.6


def _deadline() -> float:
    return time.perf_counter() + 60.0


def _untraced(name, seed=7):
    return run.untraced_run(workloads, name, seed, SECONDS, _deadline(),
                            TINY[name])


def _traced(name, seed=7):
    return run.traced_run(workloads, Tracer, name, seed, SECONDS,
                          _deadline(), TINY[name])


class BenchmarkSelfTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls._boots = mock.patch.object(workloads, "SETUP_BOOTS", 1)
        cls._boots.start()
        for name in TINY:
            workloads.prepare(name)

    @classmethod
    def tearDownClass(cls):
        cls._boots.stop()

    def _assert_clean(self, all_stats):
        for stats in all_stats:
            self.assertGreater(stats.attempted, 0)
            self.assertEqual(stats.wrong, 0)
            self.assertEqual(stats.stuck, 0)

    def test_every_workload_completes_untraced(self):
        for name in TINY:
            with self.subTest(workload=name):
                metrics, _, all_stats = _untraced(name)
                self._assert_clean(all_stats)
                self.assertEqual(set(metrics), set(run.END_TO_END))
                for metric, value in metrics.items():
                    self.assertGreater(value, 0, metric)

    def test_every_workload_completes_traced_and_reconciles(self):
        for name in TINY:
            with self.subTest(workload=name):
                metrics, _, all_stats = _traced(name)
                self._assert_clean(all_stats)
                self.assertEqual(set(run.PER_LAYER) - set(metrics), set())
                # layer self times on the guest threads vs their wall time
                self.assertAlmostEqual(metrics["trace.self_sum_frac"], 1.0,
                                       delta=0.10)
                self.assertGreater(metrics["wali.crossings"], 0)
                self.assertGreater(metrics["kernel.syscalls"], 0)

    def test_instructions_repeat_for_the_same_seed(self):
        for name in ("lua", "sqlite", "shell", "echo"):
            with self.subTest(workload=name):
                first = _traced(name, seed=11)[0]["wasm.instructions"]
                second = _traced(name, seed=11)[0]["wasm.instructions"]
                self.assertGreater(first, 0)
                self.assertEqual(first, second)

    def test_lua_reference_is_the_sum(self):
        for iters, mul, mod in ((150, 3, 7919), (97, 61, 5003), (1, 2, 3)):
            self.assertEqual(
                workloads.lua_reference(iters, mul, mod),
                sum(i * mul % mod for i in range(1, iters + 1)))

    def test_checks_reject_a_wrong_reference(self):
        def corrupt(fn, index):
            def wrong(*args, **kwargs):
                out = list(fn(*args, **kwargs))
                out[index] = out[index] + b"x"
                return tuple(out)
            return wrong

        cases = {
            "lua": ("lua_inputs", 1),
            "shell": ("shell_inputs", 1),
            "sqlite": ("sqlite_inputs", 3),
            "echo": ("echo_inputs", 1),
        }
        for name, (attr, index) in cases.items():
            with self.subTest(workload=name):
                fn = getattr(workloads, attr)
                with mock.patch.object(workloads, attr, corrupt(fn, index)):
                    _, _, (stats,) = _untraced(name)
                self.assertGreater(stats.wrong, 0)
                self.assertEqual(stats.failed, stats.attempted)

        # kv: expect a value one character off for every get
        original = workloads._Conn.next_request

        def wrong_request(conn, preload):
            req = original(conn, preload)
            if req is not None and req[1].startswith("VALUE "):
                return req[0], req[1] + "x"
            return req
        with mock.patch.object(workloads._Conn, "next_request",
                               wrong_request):
            _, _, (stats,) = _untraced("kv")
        self.assertGreater(stats.wrong, 0)
        self.assertGreater(stats.failed, 0)

    def test_kv_survives_a_lost_readiness_edge(self):
        # drop the server's whole ready list once, as the EventPoll.wait_step
        # race does: the server parks with requests in its sockets
        from repro.kernel.eventpoll import EventPoll
        original = EventPoll.wait_step
        calls = []

        def lossy(ep, maxevents):
            if ep._ready and threading.current_thread().name.startswith(
                    "wali-"):
                calls.append(1)
                if len(calls) == 50:
                    ep._ready.clear()
                    return None
            return original(ep, maxevents)
        with mock.patch.object(EventPoll, "wait_step", lossy):
            metrics, _, (stats,) = _untraced("kv")
        self.assertGreater(stats.misses, 0)
        self.assertGreater(stats.failed, 0)
        self.assertEqual(stats.wrong, 0)
        self.assertEqual(stats.stuck, 0)
        self.assertGreater(metrics["ops_per_s"], 0)

    def test_a_hung_op_is_abandoned_and_the_run_moves_on(self):
        # a host exception in exit_group leaves the task neither running
        # nor a zombie, so its parent waits forever (a real race: the
        # process-table scan in _fdtable_shared is not under table_lock)
        from repro.kernel.calls.proc import ProcCalls
        original = ProcCalls._fdtable_shared
        calls = []

        def racy(kernel, proc):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("dictionary changed size during iteration")
            return original(kernel, proc)
        with mock.patch.object(ProcCalls, "_fdtable_shared", racy), \
                mock.patch.object(workloads, "OP_CAP_S", 2.0), \
                mock.patch.object(threading, "excepthook", lambda args: None):
            _, _, (stats,) = run.untraced_run(
                workloads, "shell", 7, 3.0, _deadline(), TINY["shell"])
        self.assertGreaterEqual(stats.crashes, 1)
        self.assertGreaterEqual(stats.stuck, 1)
        self.assertGreaterEqual(stats.failed, 1)
        self.assertEqual(stats.wrong, 0)
        self.assertGreater(stats.attempted, stats.failed)   # it moved on
        time.sleep(0.2)
        self.assertEqual([t.name for t in threading.enumerate()
                          if t.name.startswith("wali-")], [])

    def test_benchmark_json_declares_what_run_reports(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.GATED))
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]},
            run.END_TO_END)
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]},
            run.PER_LAYER)


if __name__ == "__main__":
    unittest.main(verbosity=2)
