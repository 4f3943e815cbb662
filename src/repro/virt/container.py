"""Container runtime (the Docker baseline, §4.3).

Reproduces the cost *structure* of OS-interface virtualization:

* **image assembly**: images are stacks of layers (file dictionaries);
  starting a container materialises an overlay root filesystem by copying
  every layer and verifying its digest (sha256 over the layer bytes) — this
  real work is why containers pay a large startup cost (~0.5 s for Docker
  in the paper; proportionally large here);
* **namespace/cgroup setup**: mount, pid, net and user namespaces plus a
  cgroup hierarchy are built per container;
* **near-native execution**: the workload then runs on the compiled tier
  against its own kernel — at native speed, like a container on the host
  CPU;
* **base memory overhead**: storage driver + layered fs bookkeeping gives
  containers their ~30 MB floor (Fig. 8a).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..kernel import Kernel

DOCKER_BASE_OVERHEAD_MB = 30.0  # Fig. 8a: container base memory floor


@dataclass
class Layer:
    """One image layer: path -> file bytes."""

    name: str
    files: Dict[str, bytes] = field(default_factory=dict)

    def digest(self) -> str:
        h = hashlib.sha256()
        for path in sorted(self.files):
            h.update(path.encode())
            h.update(self.files[path])
        return h.hexdigest()


@dataclass
class Image:
    name: str
    layers: List[Layer] = field(default_factory=list)


def base_image(name: str = "repro-base", rootfs_mb: float = 24.0) -> Image:
    """A synthetic distribution base image (libraries, /etc, tools).

    24 MB across three layers approximates a slim distribution image; the
    copy + digest work during ``create`` is what gives containers their
    ~half-second startup in the paper's Fig. 8.
    """
    blob = bytes(range(256)) * 256  # 64 KiB pseudo-content block
    layers = []
    per_layer = int(rootfs_mb * 1024 // 64 // 3)
    for li, prefix in enumerate(("/usr/lib", "/usr/share", "/opt/vendor")):
        files = {f"{prefix}/item{li}_{i:04d}.bin": blob
                 for i in range(per_layer)}
        layers.append(Layer(f"layer{li}", files))
    layers[0].files["/etc/os-release"] = b"ID=repro\nVERSION_ID=1\n"
    layers[0].files["/bin/sh-stub"] = b"\x00asm-stub"
    return Image(name, layers)


class Namespace:
    def __init__(self, kind: str, container_id: str):
        self.kind = kind
        self.container_id = container_id
        self.members: list = []


class CGroup:
    def __init__(self, name: str):
        self.name = name
        self.cpu_quota_us = -1
        self.memory_limit = None
        self.stats = {"usage_usec": 0}


class Container:
    """A started container: overlay rootfs + namespaces + cgroup."""

    def __init__(self, container_id: str, image: Image, kernel: Kernel):
        self.id = container_id
        self.image = image
        self.kernel = kernel
        self.namespaces: Dict[str, Namespace] = {}
        self.cgroup = CGroup(container_id)
        self.setup_time_s = 0.0
        self.rootfs_bytes = 0


class ContainerRuntime:
    """dockerd, abridged: stores images, starts containers."""

    def __init__(self):
        self.images: Dict[str, Image] = {}
        self.containers: Dict[str, Container] = {}
        self._next_id = 0

    def pull(self, image: Image) -> None:
        self.images[image.name] = image

    def create(self, image_name: str,
               app_files: Optional[Dict[str, bytes]] = None,
               net: str = "loopback") -> Container:
        """Start a container: the expensive part (Fig. 8 startup gap)."""
        t0 = time.perf_counter()
        image = self.images[image_name]
        self._next_id += 1
        cid = f"c{self._next_id:08d}"

        # fresh kernel instance = isolated OS view for the container
        # (the net namespace below is per-container, so each container
        # gets its own backend instance — the --net knob rides along)
        kernel = Kernel(net_backend=net)
        container = Container(cid, image, kernel)

        # 1. materialise the overlay rootfs: copy + digest-verify each layer
        for layer in image.layers:
            digest = layer.digest()  # integrity check over the layer bytes
            assert digest
            for path, data in layer.files.items():
                directory = path.rsplit("/", 1)[0] or "/"
                kernel.vfs.mkdirs(directory)
                kernel.vfs.write_file(path, bytes(data))  # the copy
                container.rootfs_bytes += len(data)
        for path, data in (app_files or {}).items():
            kernel.vfs.mkdirs(path.rsplit("/", 1)[0] or "/")
            kernel.vfs.write_file(path, bytes(data))

        # 2. namespaces
        for kind in ("mnt", "pid", "net", "ipc", "uts", "user"):
            container.namespaces[kind] = Namespace(kind, cid)

        # 3. cgroup
        container.cgroup.memory_limit = 1 << 30

        container.setup_time_s = time.perf_counter() - t0
        self.containers[cid] = container
        return container

    def destroy(self, container: Container) -> None:
        self.containers.pop(container.id, None)
