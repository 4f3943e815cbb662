"""Tests for the virtualization baselines (Fig. 8 machinery) and the
measurement layer (Fig. 2 / Fig. 7 machinery)."""

import pytest

from repro.apps import build, install_all
from repro.apps.lua import arith_benchmark_script, fib_script
from repro.metrics import (
    aggregate_profiles, log_normalize, measure_breakdown, profile_app,
    render_profile,
)
from repro.virt import (
    BASE_MEMORY_MB, TIERS, ContainerRuntime, EmuCodeView, Workload,
    base_image, bash_workload, compare_all, emulate_instance, lua_workload,
    run_tier, sqlite_workload,
)
from repro.wali import WaliRuntime
from repro.wasm import I32, ModuleBuilder, instantiate
from repro.wasm.flatten import flatten_function


class TestEmulator:
    def _module(self):
        mb = ModuleBuilder("t")
        f = mb.func("f", params=[I32], results=[I32], export=True)
        acc = f.add_local(I32)
        with f.block():
            with f.loop():
                f.local_get(0).op("i32.eqz")
                f.br_if(1)
                f.local_get(acc).local_get(0).op("i32.add").local_set(acc)
                f.local_get(0).i32_const(1).op("i32.sub").local_set(0)
                f.br(0)
        f.local_get(acc)
        f.end()
        return mb.build()

    def test_encode_decode_roundtrip(self):
        module = self._module()
        code = flatten_function(module, module.funcs[0], "none")
        view = EmuCodeView(code)
        for pc in range(len(code.ops)):
            assert view[pc] == tuple(code.ops[pc])

    def test_emulated_execution_matches(self):
        module = self._module()
        ref = instantiate(module).invoke("f", 100)
        inst = instantiate(module)
        emulate_instance(inst)
        assert inst.invoke("f", 100) == ref == 5050

    def test_decode_counter_advances(self):
        module = self._module()
        inst = instantiate(module)
        emulate_instance(inst)
        inst.invoke("f", 50)
        view = inst.funcs[0].code
        assert view.decode_count > 100  # every dynamic fetch decoded

    def test_decode_count_equals_steps(self):
        # the emulated tier decodes on every fetch and the interpreter
        # fetches once per retired step, so the two counts agree exactly
        module = self._module()
        inst = instantiate(module)
        emulate_instance(inst)
        inst.invoke("f", 50)
        inst.invoke("f", 7)
        view = inst.funcs[0].code
        assert view.decode_count == inst.machine.steps > 100

    def test_emulation_slower_than_interpretation(self):
        import time

        module = self._module()
        plain = instantiate(module)
        emu = instantiate(module)
        emulate_instance(emu)
        n = 20000
        t0 = time.perf_counter()
        plain.invoke("f", n)
        t_plain = time.perf_counter() - t0
        t0 = time.perf_counter()
        emu.invoke("f", n)
        t_emu = time.perf_counter() - t0
        assert t_emu > t_plain


class TestContainers:
    def test_image_digests_are_stable(self):
        img = base_image()
        digests = [layer.digest() for layer in img.layers]
        assert digests == [layer.digest() for layer in img.layers]

    def test_create_materialises_rootfs(self):
        rt = ContainerRuntime()
        rt.pull(base_image(rootfs_mb=1))
        c = rt.create("repro-base", app_files={"/bin/app.wasm": b"\x00asm"})
        assert c.kernel.vfs.exists("/etc/os-release")
        assert c.kernel.vfs.exists("/bin/app.wasm")
        assert c.rootfs_bytes > 500_000
        assert c.setup_time_s > 0
        assert set(c.namespaces) == {"mnt", "pid", "net", "ipc", "uts",
                                     "user"}

    def test_containers_are_isolated(self):
        rt = ContainerRuntime()
        rt.pull(base_image(rootfs_mb=1))
        c1 = rt.create("repro-base")
        c2 = rt.create("repro-base")
        c1.kernel.vfs.write_file("/tmp/only-c1", b"x")
        assert not c2.kernel.vfs.exists("/tmp/only-c1")


class TestTierHarness:
    def test_all_tiers_agree_on_output(self):
        wl = lua_workload(60)
        module = build(wl.app)
        results = compare_all(module, wl)
        outputs = {r.output for r in results.values()}
        assert len(outputs) == 1  # same computation everywhere
        assert all(r.status == 0 for r in results.values())

    def test_memory_model_ordering(self):
        wl = lua_workload(30)
        module = build(wl.app)
        results = compare_all(module, wl)
        assert results["docker"].peak_mem_mb > results["wali"].peak_mem_mb
        assert results["native"].peak_mem_mb < results["wali"].peak_mem_mb
        for tier, r in results.items():
            assert r.peak_mem_mb >= BASE_MEMORY_MB[tier]

    def test_wali_startup_is_fast(self):
        wl = sqlite_workload(5)
        module = build(wl.app)
        for tier in ("native", "wali"):   # warm both tiers' AoT caches
            run_tier(tier, module, wl)
        wali = run_tier("wali", module, wl)
        docker = run_tier("docker", module, wl)
        assert wali.startup_s < docker.startup_s

    def test_bash_workload_runs_everywhere(self):
        wl = bash_workload(5)
        module = build(wl.app)
        results = compare_all(module, wl)
        assert all(r.status == 0 for r in results.values())

    @pytest.fixture
    def runtimes(self, monkeypatch):
        """Every WaliRuntime made while the test runs, in order."""
        made = []
        init = WaliRuntime.__init__

        def spy(rt, *args, **kwargs):
            init(rt, *args, **kwargs)
            made.append(rt)
        monkeypatch.setattr(WaliRuntime, "__init__", spy)
        return made

    @pytest.mark.parametrize("tier", ["native", "docker"])
    def test_compiled_tiers_refuse_fork(self, tier, runtimes):
        """Every function runs compiled, so the shell's forks fail with
        EAGAIN: no child process is made that could lose the pipeline."""
        wl = Workload(app="mini_sh", argv=["mini_sh", "/tmp/s.sh"],
                      files={"/tmp/s.sh": b"echo before\necho piped | cat\n"
                                          b"echo after\n"})
        r = run_tier(tier, build("mini_sh"), wl)
        (rt,) = runtimes
        # one refusal for the pipeline's left stage, one for its ``cat``
        assert rt.kernel.counters.get("wali.fork_refused") == 2
        assert rt.kernel.syscall_counts["fork"] == 0
        assert len(rt.processes) == 1
        assert (r.status, r.output) == (0, b"before\nafter\n")

    @pytest.mark.parametrize("tier", TIERS)
    def test_every_tier_exits_its_task(self, tier, runtimes):
        """A ``_start`` that returns leaves a zombie, not a running task."""
        from repro.apps import with_libc
        from repro.cc import compile_source

        module = compile_source(with_libc(
            'export func _start() { println("hi"); }'), name="ret")
        r = run_tier(tier, module, Workload(app="ret", argv=["ret"]))
        (rt,) = runtimes
        (wp,) = rt.processes
        assert (r.status, r.output) == (0, b"hi\n")
        assert wp.proc.state == "zombie"
        assert wp.proc.pid not in rt.kernel.sched.live_pids()


class TestMetrics:
    def test_profile_counts_are_exact_for_known_guest(self):
        from repro.cc import compile_source
        from repro.apps import with_libc

        mod = compile_source(with_libc(r"""
export func _start() {
    var fd: i32 = open("/tmp/x", O_CREAT | O_RDWR, 0x1b4);
    write(fd, "abc", 3);
    write(fd, "def", 3);
    close(fd);
    exit(0);
}
"""), name="known")
        p = profile_app("known", mod)
        assert p.counts["write"] == 2
        assert p.counts["openat"] == 1
        assert p.counts["close"] == 1

    def test_log_normalize_bounds(self):
        from collections import Counter

        norm = log_normalize(Counter({"a": 1000, "b": 10, "c": 1}))
        assert norm["a"] == 1.0
        assert 0 < norm["c"] < norm["b"] < 1.0

    def test_render_profile_contains_rows(self):
        from collections import Counter

        from repro.metrics import SyscallProfile

        p1 = SyscallProfile("app1", Counter({"read": 10, "write": 5}))
        p2 = SyscallProfile("app2", Counter({"read": 2}))
        text = render_profile([p1, p2])
        assert "aggregate" in text and "app1" in text and "app2" in text

    def test_breakdown_sums_to_total(self):
        bd = measure_breakdown(
            "lua", build("mini_lua"), argv=["lua", "/s.lua"],
            files={"/s.lua": arith_benchmark_script(50)})
        assert bd.total_s > 0
        assert abs(bd.app_pct + bd.kernel_pct + bd.wali_pct - 100.0) < 0.5

    def test_blocked_time_excluded(self):
        """A guest that sleeps must not count the sleep as kernel CPU."""
        from repro.cc import compile_source
        from repro.apps import with_libc

        mod = compile_source(with_libc(r"""
export func _start() {
    sleep_ms(80);
    exit(0);
}
"""), name="sleeper")
        bd = measure_breakdown("sleeper", mod)
        assert bd.total_s < 0.05  # the 80 ms sleep is excluded
