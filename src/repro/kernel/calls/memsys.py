"""Memory-management syscalls: the mmap family.

The kernel tracks VMAs (:mod:`repro.kernel.mm`); the WALI layer owns the
bytes (they live inside Wasm linear memory, §3.2) and passes an optional
``mem_reader(addr, length) -> bytes`` so MAP_SHARED write-back can reach the
file.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..errno import EBADF, ENOMEM, KernelError
from ..mm import MAP_ANONYMOUS, MapResult, MREMAP_MAYMOVE, WritebackSpec
from ..process import Process

# msync(2) flags
MS_ASYNC = 1
MS_INVALIDATE = 2
MS_SYNC = 4


class MemCalls:
    """Mixin with memory syscalls; mixed into :class:`Kernel`."""

    def _mm(self, proc: Process):
        if proc.mm is None:
            raise KernelError(ENOMEM, "process has no address space")
        return proc.mm

    def sys_mmap(self, proc: Process, addr: int, length: int, prot: int,
                 flags: int, fd: int = -1, offset: int = 0) -> MapResult:
        inode = None
        if not flags & MAP_ANONYMOUS:
            file = proc.fdtable.get(fd)
            if file.obj is not None or file.is_dir:
                raise KernelError(EBADF, "mmap of non-regular fd")
            inode = file.inode
            if inode is not None and inode.mapping is not None:
                # fault the mapped range into the page cache up front
                inode.mapping.ensure_resident(offset, length)
        return self._mm(proc).mmap(addr, length, prot, flags, inode, offset)

    def sys_munmap(self, proc: Process, addr: int, length: int,
                   mem_reader: Optional[Callable] = None) -> int:
        writebacks = self._mm(proc).munmap(addr, length)
        self._apply_writebacks(writebacks, mem_reader)
        return 0

    def sys_mremap(self, proc: Process, old_addr: int, old_size: int,
                   new_size: int, flags: int = MREMAP_MAYMOVE):
        return self._mm(proc).mremap(old_addr, old_size, new_size, flags)

    def sys_mprotect(self, proc: Process, addr: int, length: int,
                     prot: int) -> int:
        self._mm(proc).mprotect(addr, length, prot)
        return 0

    def sys_msync(self, proc: Process, addr: int, length: int,
                  flags: int = 0,
                  mem_reader: Optional[Callable] = None) -> int:
        writebacks = self._mm(proc).msync(addr, length)
        self._apply_writebacks(writebacks, mem_reader)
        if flags & MS_SYNC:
            # MS_SYNC means durable on return: fsync each touched file
            # through the block layer, same contract as file durability
            synced = set()
            for wb in writebacks:
                if wb.inode is not None and wb.inode.mapping is not None \
                        and id(wb.inode) not in synced:
                    synced.add(id(wb.inode))
                    self.blockdev.fsync_inode(wb.inode, datasync=True)
        return 0

    def sys_madvise(self, proc: Process, addr: int, length: int,
                    advice: int) -> int:
        return 0

    def sys_mincore(self, proc: Process, addr: int, length: int) -> bytes:
        mm = self._mm(proc)
        pages = (length + 4095) // 4096
        out = bytearray(pages)
        for i in range(pages):
            if mm.find(addr + i * 4096) is not None:
                out[i] = 1
        return bytes(out)

    def sys_brk(self, proc: Process, addr: int) -> int:
        """musl on WALI allocates with mmap; brk just reports the arena top
        so legacy callers get a sane value."""
        return self._mm(proc).peak_address()

    def _apply_writebacks(self, writebacks: List[WritebackSpec],
                          mem_reader: Optional[Callable]) -> None:
        if mem_reader is None:
            return
        for wb in writebacks:
            data = mem_reader(wb.addr, wb.length)
            if data is not None:
                end = wb.file_offset + len(data)
                # do not extend the file past its current size on writeback
                cur = len(wb.inode.data)
                n = min(end, cur) - wb.file_offset
                if n > 0:
                    # through write_at so block-layer dirty tracking and
                    # content fsnotify see mmap writebacks like any write
                    wb.inode.write_at(wb.file_offset, bytes(data[:n]))
