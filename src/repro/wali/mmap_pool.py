"""The engine-side mmap allocation pool (§3.2 "Memory Management").

All guest mappings land *inside* Wasm linear memory: WALI reserves a region
of the address space starting at the pool base (one bookkeeping variable, as
the paper's implementation notes) and backs kernel-chosen placements with
``memory.grow`` on demand, up to the module's declared maximum.  Mappings are
placed with MAP_FIXED semantics by the kernel VMA allocator; the pool's
``grow_hook`` extends linear memory when a placement lands past the current
size, failing (ENOMEM) past the declared maximum — exactly the behaviour the
paper describes.
"""

from __future__ import annotations

from ..kernel.mm import AddressSpace, page_align_up
from ..wasm.memory import LinearMemory
from ..wasm.types import PAGE_SIZE


class MmapPool:
    """Binds a kernel :class:`AddressSpace` to a Wasm linear memory.

    ``space`` is an existing address space to bind (a fork child's, which
    the kernel already copied); by default the pool makes a fresh one.
    """

    def __init__(self, memory: LinearMemory,
                 space: AddressSpace | None = None):
        self.memory = memory
        if space is None:
            # the pool starts past the static image
            base = page_align_up(memory.size_bytes)
            max_pages = memory.max_pages \
                if memory.max_pages is not None else 65536
            limit = max_pages * PAGE_SIZE
            if limit < base:
                raise ValueError("memory max below pool base")
            space = AddressSpace(base, limit)
        self.space = space
        space.grow_hook = self._ensure_backing

    @property
    def base(self) -> int:
        return self.space.base

    @property
    def limit(self) -> int:
        return self.space.limit

    def _ensure_backing(self, needed_end: int) -> bool:
        """Grow linear memory so addresses below ``needed_end`` exist."""
        cur = self.memory.size_bytes
        if needed_end <= cur:
            return True
        delta_pages = (needed_end - cur + PAGE_SIZE - 1) // PAGE_SIZE
        return self.memory.grow(delta_pages) >= 0

    def stats(self) -> dict:
        return {
            "base": self.base,
            "limit": self.limit,
            "mapped_bytes": self.space.total_mapped(),
            "vma_count": len(self.space.vmas),
            "memory_pages": self.memory.pages,
            "peak_pages": self.memory.peak_pages,
        }
