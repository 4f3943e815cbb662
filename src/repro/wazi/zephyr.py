"""A Zephyr-RTOS-like kernel substrate.

Zephyr is a small, ISA-portable RTOS: kernel services (uptime, sleep,
yield), a console, a flash-backed file system (littlefs-style, flat), and a
device model (GPIO pins, sensors).  This model provides exactly the
services WAZI (§5.1) exposes to Wasm guests — enough to run the paper's
"Lua on a Nucleo board" class of demo, with a syscall *encoding* that the
interface generator consumes (Zephyr's build emits such an encoding at
compile time; we model that artifact directly).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Dict

# Zephyr-style error codes (negative errno, same numbering as Linux)
ENOENT = 2
EIO = 5
EBADF = 9
ENOMEM = 12
EINVAL = 22
ENOSPC = 28


class ZephyrError(Exception):
    def __init__(self, errno: int, message: str = ""):
        self.errno = errno
        super().__init__(message or f"zephyr error {errno}")


@dataclass
class FlashFile:
    name: str
    data: bytearray = field(default_factory=bytearray)


class FlashFS:
    """A littlefs-flavoured flat filesystem with a capacity budget."""

    def __init__(self, capacity: int = 64 * 1024):
        self.files: Dict[str, FlashFile] = {}
        self.capacity = capacity

    def used(self) -> int:
        return sum(len(f.data) for f in self.files.values())

    def open(self, name: str, create: bool) -> FlashFile:
        f = self.files.get(name)
        if f is None:
            if not create:
                raise ZephyrError(ENOENT, name)
            f = FlashFile(name)
            self.files[name] = f
        return f

    def unlink(self, name: str) -> None:
        if name not in self.files:
            raise ZephyrError(ENOENT, name)
        del self.files[name]

    def write(self, f: FlashFile, offset: int, data: bytes) -> int:
        grow = max(0, offset + len(data) - len(f.data))
        if self.used() + grow > self.capacity:
            raise ZephyrError(ENOSPC, "flash full")
        if offset > len(f.data):
            f.data.extend(b"\xff" * (offset - len(f.data)))
        f.data[offset:offset + len(data)] = data
        return len(data)


class GPIOPin:
    def __init__(self):
        self.value = 0
        self.direction = "input"
        self.toggles = 0


class Sensor:
    """A deterministic synthetic sensor (temperature-ish ramp + wobble)."""

    def __init__(self, seed: int = 7):
        self._n = 0
        self._seed = seed

    def fetch(self) -> None:
        self._n += 1

    def channel_get(self, channel: int) -> int:
        # milli-degrees: 21C baseline + deterministic wobble
        wobble = ((self._n * 37 + self._seed) % 17) - 8
        return 21_000 + channel * 500 + wobble * 25


class Device:
    def __init__(self, name: str, kind: str, obj):
        self.name = name
        self.kind = kind
        self.obj = obj


class ZephyrKernel:
    """The RTOS: clock, console, flash fs, devices, thread accounting."""

    def __init__(self, sram_kb: int = 384):
        self.boot_ns = _time.monotonic_ns()
        self.console = bytearray()
        self.fs = FlashFS()
        self.sram_kb = sram_kb
        self.devices: Dict[str, Device] = {}
        self._fd_table: Dict[int, tuple] = {}  # fd -> (FlashFile, offset)
        self._next_fd = 3
        self.syscall_counts: Dict[str, int] = {}
        self._install_devices()

    def _install_devices(self):
        for i in range(4):
            self.devices[f"GPIO_{i}"] = Device(f"GPIO_{i}", "gpio", GPIOPin())
        self.devices["TEMP_0"] = Device("TEMP_0", "sensor", Sensor())
        self.devices["TEMP_1"] = Device("TEMP_1", "sensor", Sensor(seed=23))

    def trace(self, name: str) -> None:
        self.syscall_counts[name] = self.syscall_counts.get(name, 0) + 1

    # ---- kernel services ----

    def k_uptime_get(self) -> int:
        """Milliseconds since boot."""
        return (_time.monotonic_ns() - self.boot_ns) // 1_000_000

    def k_cycle_get(self) -> int:
        return _time.monotonic_ns() - self.boot_ns

    def k_sleep(self, ms: int) -> int:
        _time.sleep(min(ms, 50) / 1000.0)  # bounded for test friendliness
        return 0

    def k_yield(self) -> int:
        _time.sleep(0)
        return 0

    def console_write(self, data: bytes) -> int:
        self.console.extend(data)
        return len(data)

    # ---- filesystem ----

    def fs_open(self, name: str, flags: int) -> int:
        create = bool(flags & 0x10)  # FS_O_CREATE
        f = self.fs.open(name, create)
        fd = self._next_fd
        self._next_fd += 1
        self._fd_table[fd] = [f, 0]
        return fd

    def _file(self, fd: int):
        entry = self._fd_table.get(fd)
        if entry is None:
            raise ZephyrError(EBADF, str(fd))
        return entry

    def fs_read(self, fd: int, length: int) -> bytes:
        entry = self._file(fd)
        f, off = entry
        data = bytes(f.data[off:off + length])
        entry[1] = off + len(data)
        return data

    def fs_write(self, fd: int, data: bytes) -> int:
        entry = self._file(fd)
        n = self.fs.write(entry[0], entry[1], data)
        entry[1] += n
        return n

    def fs_seek(self, fd: int, offset: int) -> int:
        entry = self._file(fd)
        if offset < 0:
            raise ZephyrError(EINVAL)
        entry[1] = offset
        return 0

    def fs_close(self, fd: int) -> int:
        if fd not in self._fd_table:
            raise ZephyrError(EBADF, str(fd))
        del self._fd_table[fd]
        return 0

    def fs_unlink(self, name: str) -> int:
        self.fs.unlink(name)
        return 0

    def fs_size(self, name: str) -> int:
        f = self.fs.files.get(name)
        if f is None:
            raise ZephyrError(ENOENT, name)
        return len(f.data)

    # ---- devices ----

    def device_get_binding(self, name: str) -> int:
        """Returns a small device handle (index), 0 if absent."""
        names = sorted(self.devices)
        if name not in self.devices:
            return 0
        return names.index(name) + 1

    def _device_by_handle(self, handle: int) -> Device:
        names = sorted(self.devices)
        if handle < 1 or handle > len(names):
            raise ZephyrError(EINVAL, f"device handle {handle}")
        return self.devices[names[handle - 1]]

    def gpio_pin_configure(self, handle: int, direction: int) -> int:
        dev = self._device_by_handle(handle)
        if dev.kind != "gpio":
            raise ZephyrError(EINVAL)
        dev.obj.direction = "output" if direction else "input"
        return 0

    def gpio_pin_set(self, handle: int, value: int) -> int:
        dev = self._device_by_handle(handle)
        if dev.kind != "gpio":
            raise ZephyrError(EINVAL)
        if dev.obj.value != (value & 1):
            dev.obj.toggles += 1
        dev.obj.value = value & 1
        return 0

    def gpio_pin_get(self, handle: int) -> int:
        dev = self._device_by_handle(handle)
        return dev.obj.value

    def sensor_sample_fetch(self, handle: int) -> int:
        dev = self._device_by_handle(handle)
        if dev.kind != "sensor":
            raise ZephyrError(EINVAL)
        dev.obj.fetch()
        return 0

    def sensor_channel_get(self, handle: int, channel: int) -> int:
        dev = self._device_by_handle(handle)
        if dev.kind != "sensor":
            raise ZephyrError(EINVAL)
        return dev.obj.channel_get(channel)
