"""The image cache: each wasm image is decoded, validated and flattened
once per content, next to its compiled code (``repro.wasm.compile``).

A load or ``execve`` of bytes seen before only links: it decodes,
validates and flattens nothing.  The cache is keyed by content, so two
images that differ by one byte share nothing, an image that fails to
decode or validate fails on every load, and a pass that rewrites a
module in place (``gc_functions``) gets fresh code.  Concurrent loads of
one image fill one entry, and a warm load runs exactly as a cold one.

Each test makes its images unique with a custom section (which decoding
skips), so its first load is cold whatever ran before it.
"""

import sys
import threading

import pytest

from repro.apps import build, with_libc
from repro.apps.lua import fib_script
from repro.cc import compile_source
from repro.wali import WaliHost, WaliRuntime
from repro.wali import runtime as wali_runtime
from repro.wasm import I32, I64, ModuleBuilder, encode_module, instantiate
from repro.wasm import compile as wasm_compile
from repro.wasm.compile import compiled_functions, load_image
from repro.wasm.interp import WasmFunc
from repro.wasm.opt import gc_functions


def tagged(image: bytes, tag: str) -> bytes:
    """``image`` with a custom section named ``tag`` appended: the same
    program under a content key no other test loads."""
    name = tag.encode()
    payload = bytes([len(name)]) + name
    return image + bytes([0, len(payload)]) + payload


def app_image(app: str, tag: str) -> bytes:
    return tagged(encode_module(build(app)), f"{tag}:{app}")


@pytest.fixture
def counted(monkeypatch):
    """Calls of the three per-image passes, by pass name: the runtime's
    ``decode_module`` (by path) and the cache's validation and
    flattening."""
    calls = {"decode": [], "validate": 0, "flatten": 0}
    decode = wali_runtime.decode_module
    validate = wasm_compile.validate_module
    flatten = wasm_compile.flatten_module

    def counting_decode(data, name=""):
        calls["decode"].append(name)
        return decode(data, name=name)

    def counting_validate(m):
        calls["validate"] += 1
        return validate(m)

    def counting_flatten(m, scheme="loop"):
        calls["flatten"] += 1
        return flatten(m, scheme)

    monkeypatch.setattr(wali_runtime, "decode_module", counting_decode)
    monkeypatch.setattr(wasm_compile, "validate_module", counting_validate)
    monkeypatch.setattr(wasm_compile, "flatten_module", counting_flatten)
    return calls


def runtime_with(files, tier_up="fork_free") -> WaliRuntime:
    rt = WaliRuntime(tier_up=tier_up)
    for path, data in files.items():
        rt.kernel.vfs.mkdirs(path.rsplit("/", 1)[0] or "/")
        rt.kernel.vfs.write_file(path, data, mode=0o755)
    return rt


# ---- a warm load only links ----

def test_second_load_decodes_validates_and_flattens_nothing(counted):
    image = app_image("mini_sqlite", "second-load")
    first = runtime_with({"/bin/sqlite.wasm": image}).load("/bin/sqlite.wasm")
    assert counted == {"decode": ["/bin/sqlite.wasm"], "validate": 1,
                       "flatten": 1}
    second = runtime_with({"/bin/sqlite.wasm": image}).load(
        "/bin/sqlite.wasm")
    assert counted == {"decode": ["/bin/sqlite.wasm"], "validate": 1,
                       "flatten": 1}
    # the code is shared; the state is each instance's own
    assert second.module is first.module
    pairs = list(zip(first.instance.funcs, second.instance.funcs))
    assert all(a.code is b.code and a.native is b.native
               for a, b in pairs if isinstance(a, WasmFunc))
    assert second.instance.memory is not first.instance.memory
    assert second.instance.globals[0] is not first.instance.globals[0]


def _const_module(value: int):
    mb = ModuleBuilder("const")
    f = mb.func("main", results=[I32], export=True)
    f.i32_const(value)
    f.end()
    return mb.build()


def test_images_one_byte_apart_share_nothing():
    a, b = (tagged(encode_module(_const_module(v)), "one-byte")
            for v in (7, 8))
    assert len(a) == len(b)
    assert sum(x != y for x, y in zip(a, b)) == 1
    ma, mb_ = load_image(a), load_image(b)
    assert ma is not mb_
    for rule in (None, "fork_free", "all"):
        ia = instantiate(ma, tier_up=rule)
        ib = instantiate(mb_, tier_up=rule)
        assert (ia.invoke("main"), ib.invoke("main")) == (7, 8)
        fa, fb = ia.funcs[0], ib.funcs[0]
        assert fa.code is not fb.code
        if rule is not None:
            assert fa.native is not fb.native
            assert compiled_functions(ma, "loop", rule) is not \
                compiled_functions(mb_, "loop", rule)


def _invalid_image(tag: str) -> bytes:
    """A well-formed image that fails validation: ``_start`` leaves an
    i64 where its type has no result."""
    mb = ModuleBuilder("invalid")
    mb.import_func("wali", "SYS_getpid", results=[I64])
    mb.add_memory(1, 16)
    mb.func("_start", export=True).call("SYS_getpid").end()
    return tagged(encode_module(mb.build()), tag)


EXECVE_TWICE = with_libc(r"""
buffer argvv[8];
export func _start() {
    store32(argvv, "/bad");
    store32(argvv + 4, 0);
    if (execve("/bad", argvv, 0) != -1) { exit(1); }
    if (errno != 8) { exit(2); }
    if (execve("/bad", argvv, 0) != -1) { exit(3); }
    if (errno != 8) { exit(4); }
    exit(0);
}
""")


@pytest.mark.parametrize("bad", ["undecodable", "invalid"])
def test_a_bad_image_fails_every_execve(bad, counted):
    image = _invalid_image(f"bad-{bad}")
    if bad == "undecodable":
        image = image[:30]        # cut inside the code section
    rt = runtime_with({"/bad": image})
    wp = rt.load(compile_source(EXECVE_TWICE, name="prog"))
    validated = counted["validate"]
    assert wp.run() == 0
    assert wp.proc.comm == "prog"
    # nothing was cached: each execve decoded the image again
    assert counted["decode"] == ["/bad", "/bad"]
    assert counted["validate"] - validated == (2 if bad == "invalid" else 0)


def test_concurrent_pipelines_fill_one_entry_per_image(counted,
                                                      monkeypatch):
    """Two shells run ``cat /tmp/f | wc`` at once: the children of both
    execve cat and wc concurrently, and each image is decoded once, into
    one module every one of its hosts binds."""
    images = {f"/bin/{app}.wasm": app_image(app, "pipelines")
              for app in ("cat", "wc")}
    bound = []
    imports = WaliHost.imports

    def recording(host):
        bound.append(host.image)
        return imports(host)

    monkeypatch.setattr(WaliHost, "imports", recording)
    script = b"cat /tmp/f | wc\nexit 0\n"
    rt = runtime_with({**images, "/tmp/f": b"thin kernel\n",
                       "/tmp/s": script})
    shells = [rt.load(build("mini_sh"), argv=["mini_sh", "/tmp/s"])
              for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for sh in shells:
            sh.start_in_thread()
        for sh in shells:
            sh.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert [sh.exit_status for sh in shells] == [0, 0]
    assert rt.kernel.console_output() == b"1 12\n1 12\n"
    assert sorted(counted["decode"]) == sorted(images)
    for path, image in images.items():
        execed = {id(m) for m in bound if m is not None and m.name == path}
        assert execed == {id(load_image(image))}
        assert wasm_compile._CACHE[image].module is load_image(image)


@pytest.mark.parametrize("rule", [None, "fork_free", "all"])
def test_warm_load_runs_as_the_cold_one(rule, counted):
    image = app_image("mini_lua", f"cold-warm-{rule}")
    files = {"/bin/lua.wasm": image, "/s.lua": fib_script(12)}
    runs = []
    for _ in range(2):
        rt = runtime_with(files, tier_up=rule)
        wp = rt.load("/bin/lua.wasm", argv=["lua", "/s.lua"])
        assert wp.run() == 0
        runs.append((rt.kernel.console_output(), wp.machine.steps))
    assert counted["decode"] == ["/bin/lua.wasm"]
    assert runs[0] == runs[1]
    assert runs[0][0] == b"144\n"


# ---- an in-place rewrite drops the image ----

def test_gc_functions_drops_the_stale_image():
    """``gc_functions`` renumbers functions in place; code cached for
    the module before it must not serve the module after it."""
    mb = ModuleBuilder("gc")
    unused = mb.func("unused", params=[I32], results=[I32])
    unused.local_get(0)
    unused.end()
    a = mb.func("a", params=[I32], results=[I32])
    a.local_get(0).i32_const(5).op("i32.xor")
    a.end()
    main = mb.func("main", params=[I32], results=[I32], export=True)
    main.local_get(0).call("a").i32_const(1).op("i32.add")
    main.end()
    m = mb.build()
    for rule in (None, "all"):
        assert instantiate(m, tier_up=rule).invoke("main", 77) == 73
    gc_functions(m)
    assert len(m.funcs) == 2
    for rule in (None, "all"):
        assert instantiate(m, tier_up=rule).invoke("main", 77) == 73


def test_concurrent_loads_of_one_image_decode_it_once(counted):
    image = app_image("wc", "threads")
    modules, errors = [], []

    def load():
        try:
            modules.append(load_image(image, "/bin/wc.wasm",
                                      wali_runtime.decode_module))
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=load) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert counted["decode"] == ["/bin/wc.wasm"]
    assert len({id(m) for m in modules}) == 1 and len(modules) == 8
