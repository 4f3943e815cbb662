"""Process-model syscalls: clone/fork, execve bookkeeping, exit, wait4,
identity, scheduling, rlimits, futex.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errno import (
    EAGAIN, ECHILD, EDEADLK, EINTR, EINVAL, ENOSYS, EPERM, ESRCH,
    ETIMEDOUT, KernelError,
)
from ..process import (
    CLONE_FILES, CLONE_FS, CLONE_SIGHAND, CLONE_THREAD, CLONE_VM, CSIGNAL,
    Process, RLIM_INFINITY, STATE_DEAD, STATE_RUNNING, STATE_ZOMBIE,
    WNOHANG, wait_status_exited, wait_status_signaled,
)
from ..signals import SIGCHLD, SIGKILL

# futex ops
FUTEX_WAIT = 0
FUTEX_WAKE = 1
FUTEX_LOCK_PI = 6
FUTEX_UNLOCK_PI = 7
FUTEX_PRIVATE_FLAG = 128


class ProcCalls:
    """Mixin with process syscalls; mixed into :class:`Kernel`."""

    # ---- creation ----

    def sys_clone(self, proc: Process, flags: int) -> Process:
        """Create a child LWP; returns the new Process (the runtime decides
        how to run it — WALI spawns an instance-per-thread machine)."""
        child_pid = self.alloc_pid()
        tgid = proc.tgid if flags & CLONE_THREAD else child_pid
        fdtable = proc.fdtable if flags & CLONE_FILES \
            else proc.fdtable.fork_copy()
        dispositions = proc.dispositions if flags & CLONE_SIGHAND \
            else proc.dispositions.copy()
        mm = proc.mm if flags & CLONE_VM else \
            (proc.mm.fork_copy() if proc.mm is not None else None)
        child = Process(child_pid, proc.pid, tgid=tgid, fdtable=fdtable,
                        cwd=proc.cwd, dispositions=dispositions, mm=mm)
        child.uid, child.euid = proc.uid, proc.euid
        child.gid, child.egid = proc.gid, proc.egid
        child.pgid = proc.pgid
        child.sid = proc.sid
        child.comm = proc.comm
        child.argv = list(proc.argv)
        child.environ = dict(proc.environ)
        child.umask = proc.umask
        child.blocked_mask = proc.blocked_mask  # masks are inherited (§3.3)
        child.exit_signal = flags & CSIGNAL
        if flags & CLONE_THREAD:
            leader = self.processes.get(proc.tgid, proc)
            leader.thread_group.append(child_pid)
            child.thread_group = leader.thread_group
        else:
            proc.children.append(child_pid)
        with self.table_lock:
            self.processes[child_pid] = child
        self.register_procfs(child)
        return child

    def sys_fork(self, proc: Process) -> Process:
        return self.sys_clone(proc, SIGCHLD)

    def sys_vfork(self, proc: Process) -> Process:
        return self.sys_clone(proc, SIGCHLD)

    def sys_execve(self, proc: Process, path: str, argv: List[str],
                   envp: List[str]) -> int:
        """Kernel-side bookkeeping of execve; image replacement is done by
        the runtime (WALI instantiates the new module, §3.4)."""
        node = self.vfs.resolve(path, proc.cwd or self.vfs.root, proc=proc)
        if not node.is_file:
            raise KernelError(EINVAL, path)
        proc.comm = path.rsplit("/", 1)[-1][:15]
        proc.argv = list(argv)
        proc.environ = dict(
            e.split("=", 1) for e in envp if "=" in e)
        proc.dispositions.reset_on_exec()
        proc.fdtable.close_on_exec()
        return 0

    # ---- termination & reaping ----

    def sys_exit(self, proc: Process, status: int) -> None:
        self._terminate(proc, wait_status_exited(status))

    def sys_exit_group(self, proc: Process, status: int) -> None:
        # terminate every LWP in the thread group
        for pid in list(proc.thread_group):
            lwp = self.processes.get(pid)
            if lwp is not None and lwp is not proc and \
                    lwp.state == STATE_RUNNING:
                lwp.generate_signal(SIGKILL)
        self._terminate(proc, wait_status_exited(status))

    def terminate_by_signal(self, proc: Process, sig: int) -> None:
        self._terminate(proc, wait_status_signaled(sig))

    def _terminate(self, proc: Process, wait_status: int) -> None:
        proc.exit_status = wait_status
        # robust-futex-lite: a dying task releases every PI futex it
        # owns (handing each to its top waiter) and leaves any waiter
        # lists, so no lock is orphaned and no boost dangles
        with self.futex_lock:
            for key, st in list(self.futex_pi.items()):
                if st["owner"] is proc:
                    self._pi_unlock(key, st)
                elif proc in st["waiters"]:
                    st["waiters"].remove(proc)
                    if st["owner"] is not None:
                        self._pi_refresh_boost(st["owner"])
        # leave the run queue / free the CPU slot before anything else:
        # reaping below may wake other tasks that need the slot
        self.sched.task_exit(proc)
        proc.fdtable.close_all() if not self._fdtable_shared(proc) else None
        proc.state = STATE_ZOMBIE
        # reparent children to init
        init = self.processes.get(1)
        for cpid in proc.children:
            child = self.processes.get(cpid)
            if child is not None:
                child.ppid = 1
                if init is not None:
                    init.children.append(cpid)
        proc.children.clear()
        parent = self.processes.get(proc.ppid)
        if parent is not None:
            if proc.exit_signal:
                parent.generate_signal(proc.exit_signal)
            with parent.wake:
                parent.wake.notify_all()
        if proc.is_thread:
            # threads are auto-reaped; nothing waits on them via wait4
            self.reap(proc.pid)
        with proc.wake:
            proc.wake.notify_all()

    def _fdtable_shared(self, proc: Process) -> bool:
        # snapshot under the lock: a fork or reap on another thread may
        # resize the table while we scan it
        with self.table_lock:
            others = list(self.processes.values())
        return any(p.fdtable is proc.fdtable and p.pid != proc.pid
                   and p.state == STATE_RUNNING for p in others)

    def reap(self, pid: int) -> None:
        with self.table_lock:
            p = self.processes.pop(pid, None)
        if p is not None:
            p.state = STATE_DEAD
            self.unregister_procfs(p)

    def sys_wait4(self, proc: Process, pid: int,
                  options: int = 0) -> Tuple[int, int, object]:
        """Returns (pid, wait_status, rusage); raises ECHILD when there is
        nothing to wait for."""
        def candidates():
            out = []
            for cpid in proc.children:
                child = self.processes.get(cpid)
                if child is None:
                    continue
                if pid > 0 and child.pid != pid:
                    continue
                if pid == 0 and child.pgid != proc.pgid:
                    continue
                if pid < -1 and child.pgid != -pid:
                    continue
                out.append(child)
            return out

        def scan():
            kids = candidates()
            if not kids:
                raise KernelError(ECHILD, "no matching children")
            for child in kids:
                if child.state == STATE_ZOMBIE:
                    return child
            return None

        if options & WNOHANG:
            child = scan()
            if child is None:
                return 0, 0, None
        else:
            child = self.block_until(proc, scan)
        proc.children.remove(child.pid)
        status = child.exit_status
        rusage = child.rusage
        self.reap(child.pid)
        return child.pid, status, rusage

    # ---- signals routed by pid ----

    def sys_kill(self, proc: Process, pid: int, sig: int) -> int:
        if sig < 0 or sig > 64:
            raise KernelError(EINVAL, f"signal {sig}")
        targets: List[Process] = []
        if pid > 0:
            t = self.processes.get(pid)
            if t is None or t.state != STATE_RUNNING:
                raise KernelError(ESRCH, str(pid))
            targets = [t]
        elif pid == 0 or pid < -1:
            pgid = proc.pgid if pid == 0 else -pid
            targets = [p for p in self.processes.values()
                       if p.pgid == pgid and p.state == STATE_RUNNING]
            if not targets:
                raise KernelError(ESRCH, f"pgid {pgid}")
        else:  # pid == -1: everyone except init and self’s kernel
            targets = [p for p in self.processes.values()
                       if p.pid != 1 and p.state == STATE_RUNNING]
        if sig == 0:
            return 0
        for t in targets:
            t.generate_signal(sig, sender_pid=proc.pid,
                              sender_uid=proc.euid)
        return 0

    def sys_tgkill(self, proc: Process, tgid: int, tid: int, sig: int) -> int:
        t = self.processes.get(tid)
        if t is None or t.tgid != tgid:
            raise KernelError(ESRCH, f"{tgid}:{tid}")
        if sig:
            t.generate_signal(sig, sender_pid=proc.pid,
                              sender_uid=proc.euid)
        return 0

    def sys_tkill(self, proc: Process, tid: int, sig: int) -> int:
        t = self.processes.get(tid)
        if t is None:
            raise KernelError(ESRCH, str(tid))
        if sig:
            t.generate_signal(sig, sender_pid=proc.pid,
                              sender_uid=proc.euid)
        return 0

    # ---- identity ----

    def sys_getpid(self, proc: Process) -> int:
        return proc.tgid

    def sys_gettid(self, proc: Process) -> int:
        return proc.pid

    def sys_getppid(self, proc: Process) -> int:
        return proc.ppid

    def sys_getuid(self, proc: Process) -> int:
        return proc.uid

    def sys_geteuid(self, proc: Process) -> int:
        return proc.euid

    def sys_getgid(self, proc: Process) -> int:
        return proc.gid

    def sys_getegid(self, proc: Process) -> int:
        return proc.egid

    def sys_setuid(self, proc: Process, uid: int) -> int:
        if proc.euid != 0 and uid not in (proc.uid, proc.euid):
            raise KernelError(EPERM)
        proc.uid = proc.euid = uid
        return 0

    def sys_setgid(self, proc: Process, gid: int) -> int:
        if proc.euid != 0 and gid not in (proc.gid, proc.egid):
            raise KernelError(EPERM)
        proc.gid = proc.egid = gid
        return 0

    def sys_setpgid(self, proc: Process, pid: int, pgid: int) -> int:
        target = self.processes.get(pid or proc.pid)
        if target is None:
            raise KernelError(ESRCH)
        target.pgid = pgid or target.pid
        return 0

    def sys_getpgid(self, proc: Process, pid: int) -> int:
        target = self.processes.get(pid or proc.pid)
        if target is None:
            raise KernelError(ESRCH)
        return target.pgid

    def sys_getpgrp(self, proc: Process) -> int:
        return proc.pgid

    def sys_setsid(self, proc: Process) -> int:
        proc.sid = proc.pid
        proc.pgid = proc.pid
        return proc.sid

    def sys_getsid(self, proc: Process, pid: int = 0) -> int:
        target = self.processes.get(pid or proc.pid)
        if target is None:
            raise KernelError(ESRCH)
        return target.sid

    # ---- limits & usage ----

    def sys_prlimit64(self, proc: Process, pid: int, resource: int,
                      new_limit: Optional[Tuple[int, int]]) -> Tuple[int, int]:
        target = self.processes.get(pid or proc.pid)
        if target is None:
            raise KernelError(ESRCH, str(pid))
        old = target.getrlimit(resource)
        if new_limit is not None:
            cur, maxv = new_limit
            if cur > maxv:
                raise KernelError(EINVAL, "rlim_cur > rlim_max")
            target.setrlimit(resource, cur, maxv)
        return old

    def sys_getrlimit(self, proc: Process, resource: int) -> Tuple[int, int]:
        return proc.getrlimit(resource)

    def sys_setrlimit(self, proc: Process, resource: int, cur: int,
                      maxv: int) -> int:
        self.sys_prlimit64(proc, 0, resource, (cur, maxv))
        return 0

    def sys_getrusage(self, proc: Process, who: int = 0):
        return proc.rusage

    def sys_times(self, proc: Process) -> Tuple[int, int, int, int]:
        hz = 100
        u = proc.rusage.utime_ns * hz // 1_000_000_000
        s = proc.rusage.stime_ns * hz // 1_000_000_000
        return u, s, 0, 0

    # ---- scheduling ----

    def sys_sched_yield(self, proc: Process) -> int:
        """A real yield: requeue behind equal-vruntime tasks and
        re-contend for a CPU slot (no-op when the kernel is idle)."""
        self.sched.yield_now(proc)
        return 0

    def _affinity_ncpus(self) -> int:
        """CPUs the affinity syscalls validate against: the scheduler's
        slot count when it is constrained (it may differ from the
        machine description, e.g. ``Kernel(ncpus=4, sched="cpus=1")``),
        else the machine's."""
        return self.sched.ncpus if self.sched.ncpus > 0 else self.ncpus

    def sys_sched_getaffinity(self, proc: Process, pid: int) -> int:
        target = self.processes.get(pid or proc.pid)
        if target is None:
            raise KernelError(ESRCH, str(pid))
        return target.se.affinity or (1 << self._affinity_ncpus()) - 1

    def sys_sched_setaffinity(self, proc: Process, pid: int,
                              mask: int) -> int:
        """Pin a task to a CPU subset.  The mask is honored at
        placement: the scheduler re-places the target immediately if it
        sits on (or runs on) a CPU the new mask forbids, and all future
        placement/steal decisions respect it.  A mask naming no valid
        CPU (e.g. ``1 << 8`` with one CPU) fails ``EINVAL`` as on
        Linux — it must not be silently truncated to "all CPUs"."""
        target = self.processes.get(pid or proc.pid)
        if target is None:
            raise KernelError(ESRCH, str(pid))
        full = (1 << self._affinity_ncpus()) - 1
        if mask & full == 0:
            raise KernelError(EINVAL, "empty affinity mask")
        self.sched.set_affinity(target, mask & full)
        return 0

    def sys_nice(self, proc: Process, inc: int) -> int:
        """Adjust our nice level; returns 0 like the raw Linux syscall
        (a returned new-nice would be indistinguishable from ``-errno``
        at the WALI boundary).  Unprivileged tasks cannot raise their
        priority."""
        if inc < 0 and proc.euid != 0:
            raise KernelError(EPERM, "nice: lowering needs root")
        self.sched.set_nice(proc, proc.se.nice + inc)
        return 0

    PRIO_PROCESS = 0

    def _prio_target(self, proc: Process, which: int, who: int) -> Process:
        # only per-process priorities are modeled; PRIO_PGRP/PRIO_USER
        # would silently misread `who`, so reject them loudly
        if which != self.PRIO_PROCESS:
            raise KernelError(EINVAL, f"priority which={which}")
        target = self.processes.get(who or proc.pid)
        if target is None:
            raise KernelError(ESRCH, str(who))
        return target

    def sys_getpriority(self, proc: Process, which: int, who: int) -> int:
        target = self._prio_target(proc, which, who)
        # raw-syscall encoding: 20 - nice (always positive)
        return 20 - target.se.nice

    def sys_setpriority(self, proc: Process, which: int, who: int,
                        prio: int) -> int:
        target = self._prio_target(proc, which, who)
        if prio < target.se.nice and proc.euid != 0:
            raise KernelError(EPERM, "setpriority: raising needs root")
        self.sched.set_nice(target, prio)
        return 0

    def sys_prctl(self, proc: Process, option: int, arg2=0) -> int:
        PR_SET_NAME, PR_GET_NAME = 15, 16
        if option == PR_SET_NAME:
            proc.comm = str(arg2)[:15]
            return 0
        if option == PR_GET_NAME:
            return 0
        return 0

    def sys_set_tid_address(self, proc: Process, addr: int) -> int:
        proc.tid_address = addr
        return proc.pid

    def sys_set_robust_list(self, proc: Process, head: int,
                            length: int) -> int:
        proc.robust_list = head
        return 0

    def sys_rseq(self, proc: Process, *args) -> int:
        raise KernelError(ENOSYS, "rseq")

    def sys_pidfd_open(self, proc: Process, pid: int, flags: int) -> int:
        raise KernelError(ENOSYS, "pidfd_open")

    def sys_clone3(self, proc: Process, flags: int) -> Process:
        return self.sys_clone(proc, flags)

    # ---- futex ----

    @staticmethod
    def _futex_pick(waiters: list, n: int) -> list:
        """Select ``n`` waiters in wake order: highest scheduler weight
        first (priority), FIFO among equals (the sort is stable and the
        list is in arrival order) — the plist discipline of the real
        futex hash bucket.  Entries are ``(token, proc)`` tuples (WAIT
        queues) or bare processes (PI waiter lists)."""
        def neg_weight(e):
            p = e[1] if isinstance(e, tuple) else e
            return -p.se.weight
        return sorted(waiters, key=neg_weight)[:n][:n]

    def _pi_refresh_boost(self, proc: Process) -> None:
        """Recompute a task's priority-inheritance ceiling: the max
        effective weight over the waiters of *every* PI futex it owns
        (a waiter's own boost chains through, so inheritance is
        transitive).  Zero waiters anywhere clears the boost."""
        boost = 0
        for st in self.futex_pi.values():
            if st["owner"] is proc:
                for w in st["waiters"]:
                    boost = max(boost, w.se.weight)
        self.sched.set_boost(proc, boost)

    def _pi_unlock(self, key: tuple, st: dict) -> Optional[Process]:
        """Hand a PI futex to its top waiter (priority-then-FIFO) and
        wake exactly that task; returns the new owner (None when the
        futex dies uncontended)."""
        old = st["owner"]
        if st["waiters"]:
            new_owner = self._futex_pick(st["waiters"], 1)[0]
            st["waiters"].remove(new_owner)
            st["owner"] = new_owner
            self._pi_refresh_boost(new_owner)
            with new_owner.wake:
                new_owner.wake.notify_all()
        else:
            st["owner"] = None
            self.futex_pi.pop(key, None)
            new_owner = None
        if old is not None:
            self._pi_refresh_boost(old)
        return new_owner

    def sys_futex(self, proc: Process, uaddr: int, op: int, val: int,
                  current_value: int, timeout_ns: Optional[int] = None) -> int:
        """``current_value`` is the word read from guest memory by the caller
        under the kernel lock (the WALI layer does the linear-memory read).

        ``FUTEX_WAKE`` wakes exactly the dequeued waiters (no thundering
        herd), highest-weight first, FIFO among equals.
        ``FUTEX_LOCK_PI``/``FUTEX_UNLOCK_PI`` add priority inheritance:
        while the lock is contended the holder borrows the top waiter's
        scheduler weight (see ``docs/sched.md``), so a low-priority
        holder cannot be starved off the CPU by mid-priority tasks while
        a high-priority waiter spins on the lock — unlock hands the
        futex directly to the top waiter."""
        base_op = op & ~FUTEX_PRIVATE_FLAG
        key = (id(proc.mm) if proc.mm is not None else proc.tgid, uaddr)
        if base_op == FUTEX_WAIT:
            if current_value != val:
                raise KernelError(EAGAIN, "futex value changed")
            entry = (object(), proc)
            with self.futex_lock:
                waiters = self.futex_waiters.setdefault(key, [])
                waiters.append(entry)

            def scan():
                return True if entry not in waiters else None

            try:
                self.block_until(proc, scan, timeout_ns=timeout_ns,
                                 empty=lambda: (_ for _ in ()).throw(
                                     KernelError(ETIMEDOUT,
                                                 "futex timeout")))
            finally:
                with self.futex_lock:
                    if entry in waiters:
                        waiters.remove(entry)
            return 0
        if base_op == FUTEX_WAKE:
            if val < 0:
                raise KernelError(EINVAL, "negative wake count")
            with self.futex_lock:
                waiters = self.futex_waiters.get(key, [])
                picked = self._futex_pick(waiters, val)
                for entry in picked:
                    waiters.remove(entry)
            for _, waiter in picked:
                with waiter.wake:
                    waiter.wake.notify_all()
            return len(picked)
        if base_op == FUTEX_LOCK_PI:
            with self.futex_lock:
                st = self.futex_pi.setdefault(
                    key, {"owner": None, "waiters": []})
                if st["owner"] is None:
                    st["owner"] = proc
                    return 0
                if st["owner"] is proc:
                    raise KernelError(EDEADLK, "futex already held")
                st["waiters"].append(proc)
                self._pi_refresh_boost(st["owner"])

            def owned():
                return True if st["owner"] is proc else None

            try:
                self.block_until(proc, owned, timeout_ns=timeout_ns)
            except KernelError:
                with self.futex_lock:
                    # the unlocker may have handed us the futex between
                    # the last scan and the timeout/signal check: owning
                    # it wins over the stale exception
                    if st["owner"] is proc:
                        return 0
                    if proc in st["waiters"]:
                        st["waiters"].remove(proc)
                    if st["owner"] is not None:
                        self._pi_refresh_boost(st["owner"])
                raise
            return 0
        if base_op == FUTEX_UNLOCK_PI:
            with self.futex_lock:
                st = self.futex_pi.get(key)
                if st is None or st["owner"] is not proc:
                    raise KernelError(EPERM,
                                      "unlock of unowned PI futex")
                self._pi_unlock(key, st)
            return 0
        raise KernelError(ENOSYS, f"futex op {base_op}")
