"""Application registry: compile, cache and install the guest app suite.

``build(name)`` returns the compiled module (memoised — compilation is
deterministic), ``install_all`` drops every app into a runtime's VFS under
``/bin/<name>.wasm`` so the shell can fork/execve them and ``.wasm`` files
are directly executable (§4.1's binfmt trick).
"""

from __future__ import annotations

from typing import Dict, List

from ..cc import compile_source
from ..wasm import Module
from .coreutils import (
    CAT_SOURCE, ECHO_SOURCE, FALSE_SOURCE, RLE_SOURCE, TRUE_SOURCE,
    WC_SOURCE,
)
from .event_echo import EVENT_ECHO_SOURCE
from .ktop import KTOP_SOURCE
from .lua import LUA_SOURCE
from .memcached import MEMCACHED_CLIENT_SOURCE, MEMCACHED_SOURCE
from .mqtt import MQTT_BENCH_SOURCE, MQTT_BROKER_SOURCE
from .perf import PERF_SOURCE
from .sh import SH_SOURCE
from .sqlite import SQLITE_SOURCE
from .watchd import WATCHD_SOURCE

APP_SOURCES: Dict[str, str] = {
    "echo": ECHO_SOURCE,
    "cat": CAT_SOURCE,
    "true": TRUE_SOURCE,
    "false": FALSE_SOURCE,
    "wc": WC_SOURCE,
    "rle": RLE_SOURCE,
    "mini_sh": SH_SOURCE,
    "mini_lua": LUA_SOURCE,
    "mini_sqlite": SQLITE_SOURCE,
    "mini_memcached": MEMCACHED_SOURCE,
    "memcached_client": MEMCACHED_CLIENT_SOURCE,
    "event_echo": EVENT_ECHO_SOURCE,
    "mqtt_broker": MQTT_BROKER_SOURCE,
    "paho_bench": MQTT_BENCH_SOURCE,
    "watchd": WATCHD_SOURCE,
    "ktop": KTOP_SOURCE,
    "perf": PERF_SOURCE,
}

# mapping to the paper's Table 1 rows (what each app stands in for)
PAPER_ANALOG = {
    "mini_sh": "bash",
    "mini_lua": "lua",
    "mini_sqlite": "sqlite",
    "mini_memcached": "memcached",
    "paho_bench": "paho-mqtt",
    "mqtt_broker": "paho-mqtt",
    "echo": "coreutils",
    "cat": "coreutils",
    "wc": "coreutils",
    "true": "coreutils",
    "false": "coreutils",
    "memcached_client": "memcached",
    "rle": "zlib",
    "event_echo": "memcached",
    "watchd": "inotify-tools",
    "ktop": "procps/trace-cmd",
    "perf": "linux-perf",
}

_cache: Dict[str, Module] = {}


def app_names() -> List[str]:
    return sorted(APP_SOURCES)


def build(name: str) -> Module:
    if name not in APP_SOURCES:
        raise KeyError(f"unknown app {name!r}")
    if name not in _cache:
        _cache[name] = compile_source(APP_SOURCES[name], name=name)
    return _cache[name]


def install_all(runtime, names=None) -> None:
    """Install apps as executable ``.wasm`` files in the runtime's VFS."""
    for name in (names or app_names()):
        runtime.install_binary(f"/bin/{name}.wasm", build(name))


def clear_cache() -> None:
    _cache.clear()
