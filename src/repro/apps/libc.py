"""The guest C library: mini-C source compiled against WALI imports.

This is the repository's ``wali-musl`` analog (§4 "Coverage"): everything
above the syscall boundary — malloc over mmap, string routines, stdio,
process spawning, signals, futex-based mutexes and threads — is guest
code inside the sandbox, written only against ``wali.*`` imports.

stdio keeps no buffer of its own.  ``read_line`` follows bash's rule for
input: a seekable fd is read a chunk at a time and seeked back to just past
the newline, a pipe, socket or tty a byte at a time, so the fd offset
after every call is where a byte-at-a-time reader leaves it and a child
sharing the fd reads on from the next line.

Applications concatenate :data:`LIBC_SOURCE` with their own source and
compile with :func:`repro.cc.compile_source`.
"""

LIBC_EXTERNS = r"""
// ---- WALI syscall imports (the complete set libc and apps rely on) ----
extern func SYS_read(fd: i32, buf: i32, n: i32) -> i64 from "wali";
extern func SYS_write(fd: i32, buf: i32, n: i32) -> i64 from "wali";
extern func SYS_openat(dirfd: i32, path: i32, flags: i32, mode: i32) -> i64 from "wali";
extern func SYS_close(fd: i32) -> i64 from "wali";
extern func SYS_lseek(fd: i32, off: i64, whence: i32) -> i64 from "wali";
extern func SYS_pread64(fd: i32, buf: i32, n: i32, off: i64) -> i64 from "wali";
extern func SYS_pwrite64(fd: i32, buf: i32, n: i32, off: i64) -> i64 from "wali";
extern func SYS_fstat(fd: i32, st: i32) -> i64 from "wali";
extern func SYS_newfstatat(dirfd: i32, path: i32, st: i32, flags: i32) -> i64 from "wali";
extern func SYS_access(path: i32, mode: i32) -> i64 from "wali";
extern func SYS_unlink(path: i32) -> i64 from "wali";
extern func SYS_mkdir(path: i32, mode: i32) -> i64 from "wali";
extern func SYS_rmdir(path: i32) -> i64 from "wali";
extern func SYS_rename(old: i32, new: i32) -> i64 from "wali";
extern func SYS_chdir(path: i32) -> i64 from "wali";
extern func SYS_getcwd(buf: i32, size: i32) -> i64 from "wali";
extern func SYS_getdents64(fd: i32, dirp: i32, count: i32) -> i64 from "wali";
extern func SYS_dup(fd: i32) -> i64 from "wali";
extern func SYS_dup2(oldfd: i32, newfd: i32) -> i64 from "wali";
extern func SYS_pipe2(fds: i32, flags: i32) -> i64 from "wali";
extern func SYS_fcntl(fd: i32, cmd: i32, arg: i32) -> i64 from "wali";
extern func SYS_ftruncate(fd: i32, len: i64) -> i64 from "wali";
extern func SYS_fsync(fd: i32) -> i64 from "wali";
extern func SYS_ioctl(fd: i32, req: i32, arg: i32) -> i64 from "wali";
extern func SYS_poll(fds: i32, nfds: i32, timeout: i32) -> i64 from "wali";

extern func SYS_mmap(addr: i32, len: i32, prot: i32, flags: i32, fd: i32, off: i64) -> i64 from "wali";
extern func SYS_munmap(addr: i32, len: i32) -> i64 from "wali";
extern func SYS_mremap(old: i32, oldsz: i32, newsz: i32, flags: i32, newaddr: i32) -> i64 from "wali";
extern func SYS_msync(addr: i32, len: i32, flags: i32) -> i64 from "wali";

extern func SYS_fork() -> i64 from "wali";
extern func SYS_execve(path: i32, argv: i32, envp: i32) -> i64 from "wali";
extern func SYS_exit(code: i32) -> i64 from "wali";
extern func SYS_exit_group(code: i32) -> i64 from "wali";
extern func SYS_wait4(pid: i32, status: i32, options: i32, rusage: i32) -> i64 from "wali";
extern func SYS_kill(pid: i32, sig: i32) -> i64 from "wali";
extern func SYS_getpid() -> i64 from "wali";
extern func SYS_gettid() -> i64 from "wali";
extern func SYS_getppid() -> i64 from "wali";
extern func SYS_getuid() -> i64 from "wali";
extern func SYS_clone(flags: i32, stack: i32, fn: i32, arg: i32) -> i64 from "wali";
extern func SYS_futex(uaddr: i32, op: i32, val: i32, timeout: i32, uaddr2: i32, val3: i32) -> i64 from "wali";
extern func SYS_sched_yield() -> i64 from "wali";
extern func SYS_nice(inc: i32) -> i64 from "wali";
extern func SYS_getpriority(which: i32, who: i32) -> i64 from "wali";
extern func SYS_setpriority(which: i32, who: i32, prio: i32) -> i64 from "wali";
extern func SYS_sched_getaffinity(pid: i32, size: i32, mask: i32) -> i64 from "wali";
extern func SYS_getrandom(buf: i32, len: i32, flags: i32) -> i64 from "wali";
extern func SYS_getrusage(who: i32, ru: i32) -> i64 from "wali";
extern func SYS_prlimit64(pid: i32, res: i32, newl: i32, oldl: i32) -> i64 from "wali";
extern func SYS_uname(buf: i32) -> i64 from "wali";
extern func SYS_sysinfo(buf: i32) -> i64 from "wali";

extern func SYS_rt_sigaction(sig: i32, act: i32, oldact: i32, size: i32) -> i64 from "wali";
extern func SYS_rt_sigprocmask(how: i32, set: i32, oldset: i32, size: i32) -> i64 from "wali";
extern func SYS_pause() -> i64 from "wali";
extern func SYS_alarm(sec: i32) -> i64 from "wali";
extern func SYS_nanosleep(req: i32, rem: i32) -> i64 from "wali";
extern func SYS_clock_gettime(clk: i32, ts: i32) -> i64 from "wali";

extern func SYS_inotify_init1(flags: i32) -> i64 from "wali";
extern func SYS_inotify_add_watch(fd: i32, path: i32, mask: i32) -> i64 from "wali";
extern func SYS_inotify_rm_watch(fd: i32, wd: i32) -> i64 from "wali";
extern func SYS_signalfd4(fd: i32, mask: i32, sizemask: i32, flags: i32) -> i64 from "wali";
extern func SYS_eventfd2(initval: i32, flags: i32) -> i64 from "wali";
extern func SYS_epoll_create1(flags: i32) -> i64 from "wali";
extern func SYS_epoll_ctl(epfd: i32, op: i32, fd: i32, ev: i32) -> i64 from "wali";
extern func SYS_epoll_pwait(epfd: i32, evs: i32, maxevents: i32, timeout: i32, sigmask: i32, sigsetsize: i32) -> i64 from "wali";
extern func SYS_timerfd_create(clockid: i32, flags: i32) -> i64 from "wali";
extern func SYS_timerfd_settime(fd: i32, flags: i32, newval: i32, oldval: i32) -> i64 from "wali";
extern func SYS_perf_event_open(attr: i32, pid: i32, cpu: i32, group: i32, flags: i32) -> i64 from "wali";
extern func SYS_io_uring_setup(entries: i32, params: i32) -> i64 from "wali";
extern func SYS_io_uring_enter(fd: i32, tosubmit: i32, mincomplete: i32, flags: i32, sig: i32, sigsz: i32) -> i64 from "wali";
extern func SYS_io_uring_register(fd: i32, opcode: i32, arg: i32, nargs: i32) -> i64 from "wali";

extern func SYS_socket(family: i32, type: i32, proto: i32) -> i64 from "wali";
extern func SYS_bind(fd: i32, addr: i32, len: i32) -> i64 from "wali";
extern func SYS_listen(fd: i32, backlog: i32) -> i64 from "wali";
extern func SYS_accept(fd: i32, addr: i32, lenp: i32) -> i64 from "wali";
extern func SYS_accept4(fd: i32, addr: i32, lenp: i32, flags: i32) -> i64 from "wali";
extern func SYS_connect(fd: i32, addr: i32, len: i32) -> i64 from "wali";
extern func SYS_sendto(fd: i32, buf: i32, len: i32, flags: i32, addr: i32, alen: i32) -> i64 from "wali";
extern func SYS_recvfrom(fd: i32, buf: i32, len: i32, flags: i32, addr: i32, alenp: i32) -> i64 from "wali";
extern func SYS_shutdown(fd: i32, how: i32) -> i64 from "wali";
extern func SYS_setsockopt(fd: i32, level: i32, opt: i32, val: i32, len: i32) -> i64 from "wali";

extern func get_argc() -> i32 from "wali";
extern func get_argv_len(i: i32) -> i32 from "wali";
extern func copy_argv(buf: i32, i: i32) -> i32 from "wali";
extern func get_envc() -> i32 from "wali";
extern func get_env_len(i: i32) -> i32 from "wali";
extern func copy_env(buf: i32, i: i32) -> i32 from "wali";
"""

LIBC_CORE = r"""
// ---- constants (Linux ABI) ----
const AT_FDCWD = -100;
const O_RDONLY = 0;
const O_WRONLY = 1;
const O_RDWR = 2;
const O_CREAT = 64;
const O_TRUNC = 512;
const O_APPEND = 1024;
const O_NONBLOCK = 2048;
const SEEK_SET = 0;
const SEEK_CUR = 1;
const SEEK_END = 2;
const PROT_READ = 1;
const PROT_WRITE = 2;
const MAP_PRIVATE = 2;
const MAP_ANONYMOUS = 32;
const SIGINT = 2;
const SIGKILL = 9;
const SIGUSR1 = 10;
const SIGUSR2 = 12;
const SIGALRM = 14;
const SIGTERM = 15;
const SIGCHLD = 17;
const SIG_BLOCK = 0;
const SIG_UNBLOCK = 1;
const SIG_SETMASK = 2;
const FUTEX_WAIT = 0;
const FUTEX_WAKE = 1;
const CLONE_THREAD_FLAGS = 0x10f00;  // VM|FS|FILES|SIGHAND|THREAD
const AF_INET = 2;
const SOCK_STREAM = 1;
const SOCK_NONBLOCK = 2048;
const EPOLL_CTL_ADD = 1;
const EPOLL_CTL_DEL = 2;
const EPOLL_CTL_MOD = 3;
const EPOLLIN = 1;
const EPOLLOUT = 4;
const EPOLLERR = 8;
const EPOLLHUP = 16;
const EAGAIN = 11;
const F_GETFL = 3;
const F_SETFL = 4;
const STDIN = 0;
const STDOUT = 1;
const STDERR = 2;

global errno: i32 = 0;

// ---- errno plumbing: negative syscall results become errno ----
func cret(r: i64) -> i32 {
    if (r < i64(0)) {
        errno = i32(i64(0) - r);
        return -1;
    }
    return i32(r);
}

// ---- string routines ----
func strlen(s: i32) -> i32 {
    var n: i32 = 0;
    while (load8u(s + n) != 0) { n = n + 1; }
    return n;
}

func strcmp(a: i32, b: i32) -> i32 {
    var i: i32 = 0;
    while (1) {
        var ca: i32 = load8u(a + i);
        var cb: i32 = load8u(b + i);
        if (ca != cb) { return ca - cb; }
        if (ca == 0) { return 0; }
        i = i + 1;
    }
    return 0;
}

func strncmp(a: i32, b: i32, n: i32) -> i32 {
    var i: i32 = 0;
    while (i < n) {
        var ca: i32 = load8u(a + i);
        var cb: i32 = load8u(b + i);
        if (ca != cb) { return ca - cb; }
        if (ca == 0) { return 0; }
        i = i + 1;
    }
    return 0;
}

func strcpy(dst: i32, src: i32) -> i32 {
    var n: i32 = strlen(src);
    memcopy(dst, src, n + 1);
    return dst;
}

func strcat(dst: i32, src: i32) -> i32 {
    strcpy(dst + strlen(dst), src);
    return dst;
}

func strchr(s: i32, c: i32) -> i32 {
    var i: i32 = 0;
    while (1) {
        var ch: i32 = load8u(s + i);
        if (ch == c) { return s + i; }
        if (ch == 0) { return 0; }
        i = i + 1;
    }
    return 0;
}

func memcmp(a: i32, b: i32, n: i32) -> i32 {
    var i: i32 = 0;
    while (i < n) {
        var d: i32 = load8u(a + i) - load8u(b + i);
        if (d != 0) { return d; }
        i = i + 1;
    }
    return 0;
}

func atoi(s: i32) -> i32 {
    var v: i32 = 0;
    var i: i32 = 0;
    var neg: i32 = 0;
    if (load8u(s) == '-') { neg = 1; i = 1; }
    while (load8u(s + i) >= '0' && load8u(s + i) <= '9') {
        v = v * 10 + (load8u(s + i) - '0');
        i = i + 1;
    }
    if (neg) { return 0 - v; }
    return v;
}

func itoa(v: i32, buf: i32) -> i32 {
    var p: i32 = buf;
    var x: i32 = v;
    if (x < 0) { store8(p, '-'); p = p + 1; x = 0 - x; }
    if (x == 0) { store8(p, '0'); store8(p + 1, 0); return (p + 1) - buf; }
    var n: i32 = 0;
    var t: i32 = x;
    while (t > 0) { n = n + 1; t = t / 10; }
    store8(p + n, 0);
    var i: i32 = n - 1;
    while (x > 0) {
        store8(p + i, '0' + x % 10);
        x = x / 10;
        i = i - 1;
    }
    return (p + n) - buf;
}

// djb2 string hash
func strhash(s: i32) -> i32 {
    var h: i32 = 5381;
    var i: i32 = 0;
    while (load8u(s + i) != 0) {
        h = h * 33 + load8u(s + i);
        i = i + 1;
    }
    return h;
}

// ---- heap: first-fit free list over WALI mmap (§3.2: allocators work
// unmodified over kernel interfaces) ----
global heap_lo: i32 = 0;
global heap_hi: i32 = 0;
global free_list: i32 = 0;   // node: {i32 size, i32 next}
const HEAP_CHUNK = 262144;   // 256 KiB mmap granules

func brk_more(need: i32) -> i32 {
    var sz: i32 = HEAP_CHUNK;
    while (sz < need) { sz = sz * 2; }
    var r: i64 = SYS_mmap(0, sz, PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS, -1, i64(0));
    if (r < i64(0)) { return 0; }
    var base: i32 = i32(r);
    heap_lo = base;
    heap_hi = base + sz;
    return base;
}

func malloc(size: i32) -> i32 {
    if (size < 8) { size = 8; }
    size = (size + 7) & (0 - 8);
    // search free list (first fit)
    var prev: i32 = 0;
    var cur: i32 = free_list;
    while (cur != 0) {
        if (load32(cur) >= size) {
            if (prev == 0) { free_list = load32(cur + 4); }
            else { store32(prev + 4, load32(cur + 4)); }
            return cur + 8;
        }
        prev = cur;
        cur = load32(cur + 4);
    }
    // bump allocate
    if (heap_lo == 0 || heap_lo + size + 8 > heap_hi) {
        if (brk_more(size + 8) == 0) { errno = 12; return 0; }
    }
    var node: i32 = heap_lo;
    heap_lo = heap_lo + size + 8;
    store32(node, size);
    store32(node + 4, 0);
    return node + 8;
}

func free(p: i32) {
    if (p == 0) { return; }
    var node: i32 = p - 8;
    store32(node + 4, free_list);
    free_list = node;
}

func calloc(n: i32, size: i32) -> i32 {
    var p: i32 = malloc(n * size);
    if (p != 0) { memfill(p, 0, n * size); }
    return p;
}

func realloc(p: i32, size: i32) -> i32 {
    if (p == 0) { return malloc(size); }
    var old: i32 = load32(p - 8);
    if (old >= size) { return p; }
    var q: i32 = malloc(size);
    if (q == 0) { return 0; }
    memcopy(q, p, old);
    free(p);
    return q;
}

// ---- stdio ----
buffer __io_buf[64];

func write_all(fd: i32, buf: i32, n: i32) -> i32 {
    var done: i32 = 0;
    while (done < n) {
        var r: i32 = cret(SYS_write(fd, buf + done, n - done));
        if (r < 0) { return -1; }
        done = done + r;
    }
    return done;
}

func fputs(fd: i32, s: i32) -> i32 {
    return write_all(fd, s, strlen(s));
}

func print(s: i32) { fputs(STDOUT, s); }

func println(s: i32) {
    fputs(STDOUT, s);
    fputs(STDOUT, "\n");
}

func print_int(v: i32) {
    itoa(v, __io_buf);
    fputs(STDOUT, __io_buf);
}

func eprint(s: i32) { fputs(STDERR, s); }

func open(path: i32, flags: i32, mode: i32) -> i32 {
    return cret(SYS_openat(AT_FDCWD, path, flags, mode));
}

func close(fd: i32) -> i32 { return cret(SYS_close(fd)); }

func read(fd: i32, buf: i32, n: i32) -> i32 {
    return cret(SYS_read(fd, buf, n));
}

func write(fd: i32, buf: i32, n: i32) -> i32 {
    return cret(SYS_write(fd, buf, n));
}

// read one line (up to n-1 bytes; the newline is consumed, not stored);
// returns length, -1 on EOF.  A seekable fd is read in chunks and seeked
// back to just past the newline, any other fd a byte at a time.
func read_line(fd: i32, buf: i32, n: i32) -> i32 {
    var pos: i64 = SYS_lseek(fd, i64(0), SEEK_CUR);
    var i: i32 = 0;
    while (i < n - 1) {
        var want: i32 = 1;
        if (pos >= i64(0)) { want = n - 1 - i; }
        var got: i32 = read(fd, buf + i, want);
        if (got <= 0) {
            if (i == 0) { return -1; }
            break;
        }
        var end: i32 = i + got;
        while (i < end && load8u(buf + i) != 10) { i = i + 1; }
        if (i < end) {
            if (i + 1 < end) { SYS_lseek(fd, pos + i64(i + 1), SEEK_SET); }
            break;
        }
    }
    store8(buf + i, 0);
    return i;
}

// ---- process helpers ----
func exit(code: i32) { SYS_exit_group(code); }

func fork() -> i32 { return cret(SYS_fork()); }

func waitpid(pid: i32, status_ptr: i32) -> i32 {
    return cret(SYS_wait4(pid, status_ptr, 0, 0));
}

func execve(path: i32, argv: i32, envp: i32) -> i32 {
    return cret(SYS_execve(path, argv, envp));
}

// ---- argv/env (§3.4: libc owns the argument vectors) ----
global __argc: i32 = 0;
global __argv: i32 = 0;   // i32* array of pointers

func __init_args() {
    __argc = get_argc();
    __argv = malloc((__argc + 1) * 4);
    var i: i32 = 0;
    while (i < __argc) {
        var len: i32 = get_argv_len(i);
        var s: i32 = malloc(len);
        copy_argv(s, i);
        store32(__argv + i * 4, s);
        i = i + 1;
    }
    store32(__argv + __argc * 4, 0);
}

func argc() -> i32 { return __argc; }
func argv(i: i32) -> i32 { return load32(__argv + i * 4); }

buffer __env_tmp[256];

func getenv(name: i32) -> i32 {
    var n: i32 = get_envc();
    var nl: i32 = strlen(name);
    var i: i32 = 0;
    while (i < n) {
        copy_env(__env_tmp, i);
        if (strncmp(__env_tmp, name, nl) == 0 && load8u(__env_tmp + nl) == '=') {
            return __env_tmp + nl + 1;
        }
        i = i + 1;
    }
    return 0;
}

// ---- signals ----
buffer __sa_buf[16];

func signal(sig: i32, handler_ref: i32) -> i32 {
    store32(__sa_buf, handler_ref);
    store32(__sa_buf + 4, 0);
    store64(__sa_buf + 8, i64(0));
    return cret(SYS_rt_sigaction(sig, __sa_buf, 0, 8));
}

buffer __mask_buf[8];

func sigblock(sig: i32) -> i32 {
    store64(__mask_buf, i64(1) << i64(sig - 1));
    return cret(SYS_rt_sigprocmask(SIG_BLOCK, __mask_buf, 0, 8));
}

func sigunblock(sig: i32) -> i32 {
    store64(__mask_buf, i64(1) << i64(sig - 1));
    return cret(SYS_rt_sigprocmask(SIG_UNBLOCK, __mask_buf, 0, 8));
}

// ---- threads & locks (instance-per-thread over WALI clone, §3.1) ----
func thread_create(fn_ref: i32, arg: i32) -> i32 {
    return cret(SYS_clone(CLONE_THREAD_FLAGS, 0, fn_ref, arg));
}

func mutex_lock(m: i32) {
    while (atomic_cas32(m, 0, 1) != 0) {
        SYS_futex(m, FUTEX_WAIT, 1, 0, 0, 0);
    }
}

func mutex_unlock(m: i32) {
    atomic_cas32(m, 1, 0);
    SYS_futex(m, FUTEX_WAKE, 1, 0, 0, 0);
}

// ---- sockets ----
buffer __sa_in[16];

func make_sockaddr(ip_a: i32, ip_b: i32, ip_c: i32, ip_d: i32, port: i32) -> i32 {
    store16(__sa_in, AF_INET);
    store8(__sa_in + 2, (port >> 8) & 255);
    store8(__sa_in + 3, port & 255);
    store8(__sa_in + 4, ip_a);
    store8(__sa_in + 5, ip_b);
    store8(__sa_in + 6, ip_c);
    store8(__sa_in + 7, ip_d);
    store64(__sa_in + 8, i64(0));
    return __sa_in;
}

func tcp_listen(port: i32, backlog: i32) -> i32 {
    var fd: i32 = cret(SYS_socket(AF_INET, SOCK_STREAM, 0));
    if (fd < 0) { return -1; }
    if (cret(SYS_bind(fd, make_sockaddr(127, 0, 0, 1, port), 16)) < 0) {
        close(fd);
        return -1;
    }
    if (cret(SYS_listen(fd, backlog)) < 0) { close(fd); return -1; }
    return fd;
}

buffer __optval[4];

func tcp_connect(port: i32) -> i32 {
    var fd: i32 = cret(SYS_socket(AF_INET, SOCK_STREAM, 0));
    if (fd < 0) { return -1; }
    store32(__optval, 1);
    SYS_setsockopt(fd, 6, 1, __optval, 4);  // IPPROTO_TCP, TCP_NODELAY
    if (cret(SYS_connect(fd, make_sockaddr(127, 0, 0, 1, port), 16)) < 0) {
        close(fd);
        return -1;
    }
    return fd;
}

// ---- event-driven I/O: epoll + nonblocking fds ----
buffer __ep_ev[12];   // scratch epoll_event: {u32 events, u64 data}

func set_nonblock(fd: i32) -> i32 {
    var fl: i32 = cret(SYS_fcntl(fd, F_GETFL, 0));
    if (fl < 0) { return -1; }
    return cret(SYS_fcntl(fd, F_SETFL, fl | O_NONBLOCK));
}

func epoll_ctl_fd(epfd: i32, op: i32, fd: i32, events: i32) -> i32 {
    store32(__ep_ev, events);
    store32(__ep_ev + 4, fd);    // event data low word = fd
    store32(__ep_ev + 8, 0);
    return cret(SYS_epoll_ctl(epfd, op, fd, __ep_ev));
}

func epoll_add(epfd: i32, fd: i32, events: i32) -> i32 {
    return epoll_ctl_fd(epfd, EPOLL_CTL_ADD, fd, events);
}

func epoll_del(epfd: i32, fd: i32) -> i32 {
    return epoll_ctl_fd(epfd, EPOLL_CTL_DEL, fd, 0);
}

// evs is an array of 12-byte epoll_events; returns the ready count
func epoll_wait(epfd: i32, evs: i32, maxevents: i32, timeout_ms: i32) -> i32 {
    return cret(SYS_epoll_pwait(epfd, evs, maxevents, timeout_ms, 0, 8));
}

func ev_events(evs: i32, i: i32) -> i32 { return load32(evs + i * 12); }
func ev_fd(evs: i32, i: i32) -> i32 { return load32(evs + i * 12 + 4); }

// ---- filesystem events: inotify ----
const IN_MODIFY = 2;
const IN_ATTRIB = 4;
const IN_CLOSE_WRITE = 8;
const IN_MOVED_FROM = 64;
const IN_MOVED_TO = 128;
const IN_CREATE = 256;
const IN_DELETE = 512;
const IN_DELETE_SELF = 1024;
const IN_MOVE_SELF = 2048;
const IN_Q_OVERFLOW = 16384;
const IN_IGNORED = 32768;
const IN_NONBLOCK = 2048;   // flag for inotify_init1 (== O_NONBLOCK)

func inotify_init() -> i32 { return cret(SYS_inotify_init1(0)); }

func inotify_watch(fd: i32, path: i32, mask: i32) -> i32 {
    return cret(SYS_inotify_add_watch(fd, path, mask));
}

func inotify_unwatch(fd: i32, wd: i32) -> i32 {
    return cret(SYS_inotify_rm_watch(fd, wd));
}

// accessors over a read buffer of inotify_event records: p points at one
// record; in_next steps to the following record
func in_wd(p: i32) -> i32 { return load32(p); }
func in_mask(p: i32) -> i32 { return load32(p + 4); }
func in_cookie(p: i32) -> i32 { return load32(p + 8); }
func in_name(p: i32) -> i32 { return p + 16; }
func in_next(p: i32) -> i32 { return p + 16 + load32(p + 12); }

// ---- synchronous signal consumption: signalfd ----
buffer __sfd_mask[8];

// block sig and open a signalfd draining it (the standard usage: the
// default/sigvirt delivery path must not race the fd)
func signalfd_for(sig: i32) -> i32 {
    sigblock(sig);
    store64(__sfd_mask, i64(1) << i64(sig - 1));
    return cret(SYS_signalfd4(0 - 1, __sfd_mask, 8, 0));
}

// first field of a signalfd_siginfo record (128 bytes each)
func sfd_signo(p: i32) -> i32 { return load32(p); }
func sfd_pid(p: i32) -> i32 { return load32(p + 12); }

// ---- batched I/O: io_uring-style submission/completion ring ----
// One ring per process (globals): the guest queues SQEs into its own
// linear-memory SQ array and reaps CQEs from its CQ array — only
// uring_submit / uring_reap_batch cross the guest<->host boundary, so a
// whole batch of accept/recv/send costs one crossing.
const IORING_OP_NOP = 0;
const IORING_OP_READ = 1;
const IORING_OP_WRITE = 2;
const IORING_OP_ACCEPT = 3;
const IORING_OP_SEND = 4;
const IORING_OP_RECV = 5;
const IORING_OP_POLL_ADD = 6;
const IORING_OP_TIMEOUT = 7;
const IORING_OP_READ_FIXED = 9;
const IOSQE_IO_LINK = 4;
const IOSQE_CQE_SKIP_SUCCESS = 64;
const IOSQE_FIXED_BUFFER = 128;
const IORING_ENTER_GETEVENTS = 1;
const IORING_ENTER_SQ_WAKEUP = 2;
const IORING_ENTER_TIMEOUT_MS = 16;
const IORING_SETUP_SQPOLL = 2;
const IORING_REGISTER_BUFFERS = 1;
const IORING_ACCEPT_MULTISHOT = 1;
const IORING_RECV_MULTISHOT = 2;
const IORING_CQE_F_BUFFER = 1;
const IORING_CQE_F_MORE = 2;
const IORING_SQ_CQ_OVERFLOW = 1;
const IORING_SQ_NEED_WAKEUP = 2;

global __uring_fd: i32 = -1;
global __uring_base: i32 = 0;
global __uring_sqn: i32 = 0;
global __uring_cqn: i32 = 0;
// entries are powers of two: index with masks, not division
global __uring_sqmask: i32 = 0;
global __uring_cqmask: i32 = 0;
global __uring_sqbase: i32 = 0;
global __uring_cqbase: i32 = 0;
// {u32 sq_entries, u32 cq_entries} written back by the engine,
// {u32 flags, u32 sq_thread_idle_ms} filled in by the guest
buffer __uring_params[16];

// create the ring, allocate the shared region (header + SQ + CQ) and
// register it with the engine; returns the ring fd or -1
func uring_init(entries: i32) -> i32 {
    return uring_init2(entries, 0, 0);
}

// the full form: flags (IORING_SETUP_SQPOLL) and the SQPOLL idle
// window in ms (0 takes the engine default)
func uring_init2(entries: i32, flags: i32, idle_ms: i32) -> i32 {
    store32(__uring_params, 0);
    store32(__uring_params + 4, 0);
    store32(__uring_params + 8, flags);
    store32(__uring_params + 12, idle_ms);
    var fd: i32 = cret(SYS_io_uring_setup(entries, __uring_params));
    if (fd < 0) { return -1; }
    var sqn: i32 = load32(__uring_params);
    var cqn: i32 = load32(__uring_params + 4);
    var base: i32 = malloc(32 + sqn * 32 + cqn * 16);
    if (base == 0) { close(fd); return -1; }
    memfill(base, 0, 32 + sqn * 32 + cqn * 16);
    store32(base + 8, sqn);
    store32(base + 20, cqn);
    if (cret(SYS_io_uring_register(fd, 0, base, 1)) < 0) {
        free(base);
        close(fd);
        return -1;
    }
    __uring_fd = fd;
    __uring_base = base;
    __uring_sqn = sqn;
    __uring_cqn = cqn;
    __uring_sqmask = sqn - 1;
    __uring_cqmask = cqn - 1;
    __uring_sqbase = base + 32;
    __uring_cqbase = base + 32 + sqn * 32;
    return fd;
}

// queue one SQE guest-side (no crossing); -1 when the SQ ring is full
func uring_sqe(op: i32, fd: i32, addr: i32, len: i32, udata: i32, flags: i32) -> i32 {
    var head: i32 = load32(__uring_base);
    var tail: i32 = load32(__uring_base + 4);
    if (tail - head >= __uring_sqn) { return -1; }
    var p: i32 = __uring_sqbase + (tail & __uring_sqmask) * 32;
    store8(p, op);
    store8(p + 1, flags);
    store16(p + 2, 0);
    store32(p + 4, fd);
    store32(p + 8, addr);
    store32(p + 12, len);
    store64(p + 16, i64(0));
    store64(p + 24, i64(udata));
    store32(__uring_base + 4, tail + 1);
    return 0;
}

// hot-path SQE writer for event loops: the first SQE word arrives
// pre-packed (opcode | flags << 8), one call frame, five stores; a
// momentarily full SQ ring is flushed with one extra crossing.  The
// off field stays zero from uring_init, so it only suits ops that
// ignore it (READ/WRITE/ACCEPT/SEND/RECV).
func uring_push(opf: i32, fd: i32, addr: i32, len: i32, ud: i32) {
    var tail: i32 = load32(__uring_base + 4);
    if (tail - load32(__uring_base) >= __uring_sqn) {
        uring_submit();
        tail = load32(__uring_base + 4);
    }
    var p: i32 = __uring_sqbase + (tail & __uring_sqmask) * 32;
    store32(p, opf);
    store32(p + 4, fd);
    store32(p + 8, addr);
    store32(p + 12, len);
    store32(p + 24, ud);
    store32(p + 28, 0);
    store32(__uring_base + 4, tail + 1);
}

// common pre-packed first words for uring_push
const OPF_SEND_QUIET = 16388;   // SEND | CQE_SKIP_SUCCESS << 8
const OPF_SEND_LINKED = 17412;  // SEND | (IO_LINK | CQE_SKIP_SUCCESS) << 8

// POLL_ADD (events ride the off field) and TIMEOUT (ns deadline) SQEs
func uring_poll_add(fd: i32, events: i32, udata: i32) -> i32 {
    if (uring_sqe(IORING_OP_POLL_ADD, fd, 0, 0, udata, 0) < 0) { return -1; }
    var tail: i32 = load32(__uring_base + 4) - 1;
    store64(__uring_sqbase + (tail & __uring_sqmask) * 32 + 16, i64(events));
    return 0;
}

func uring_timeout_ms(ms: i32, udata: i32) -> i32 {
    if (uring_sqe(IORING_OP_TIMEOUT, -1, 0, 0, udata, 0) < 0) { return -1; }
    var tail: i32 = load32(__uring_base + 4) - 1;
    store64(__uring_sqbase + (tail & __uring_sqmask) * 32 + 16,
            i64(ms) * i64(1000000));
    return 0;
}

// pending (queued, unsubmitted) SQE count
func uring_sq_pending() -> i32 {
    return load32(__uring_base + 4) - load32(__uring_base);
}

// submit everything queued without waiting; returns submitted count
func uring_submit() -> i32 {
    return cret(SYS_io_uring_enter(__uring_fd, uring_sq_pending(), 0,
                                   IORING_ENTER_GETEVENTS, 0, 0));
}

// submit everything queued and wait until at least min_complete CQEs
// are reapable (timeout_ms <= 0 waits indefinitely); one crossing per
// call.  returns the number of CQEs now waiting in the CQ ring.
func uring_reap_batch(min_complete: i32, timeout_ms: i32) -> i32 {
    var flags: i32 = IORING_ENTER_GETEVENTS;
    var sig: i32 = 0;
    if (timeout_ms > 0) {
        flags = flags | IORING_ENTER_TIMEOUT_MS;
        sig = timeout_ms;
    }
    if (cret(SYS_io_uring_enter(__uring_fd, uring_sq_pending(),
                                min_complete, flags, sig, 0)) < 0) {
        return -1;
    }
    return uring_cq_ready();
}

// CQ-side accessors: all guest-memory reads, no crossings
func uring_cq_ready() -> i32 {
    return load32(__uring_base + 16) - load32(__uring_base + 12);
}

func uring_cqe_ptr(i: i32) -> i32 {
    var head: i32 = load32(__uring_base + 12);
    return __uring_cqbase + ((head + i) & __uring_cqmask) * 16;
}

func uring_cqe_data(i: i32) -> i32 { return i32(load64(uring_cqe_ptr(i))); }
func uring_cqe_res(i: i32) -> i32 { return load32(uring_cqe_ptr(i) + 8); }
func uring_cqe_flags(i: i32) -> i32 { return load32(uring_cqe_ptr(i) + 12); }
func uring_cq_advance(n: i32) {
    store32(__uring_base + 12, load32(__uring_base + 12) + n);
}

// kernel-mirrored header flags: CQ_OVERFLOW / SQPOLL NEED_WAKEUP bits
func uring_ring_flags() -> i32 { return load32(__uring_base + 28); }

// ---- zero-crossing extensions: registered buffers, multishot, SQPOLL ----

// register a buffer table: tab points at n {u32 addr, u32 len} iovecs.
// The engine translates every slot ONCE; fixed-buffer SQEs then name a
// slot index instead of a pointer and skip per-op translation.
func uring_register_buffers(tab: i32, n: i32) -> i32 {
    return cret(SYS_io_uring_register(__uring_fd, IORING_REGISTER_BUFFERS,
                                      tab, n));
}

// arm a multishot accept: the one SQE posts a CQE (flagged
// IORING_CQE_F_MORE) per accepted connection until error/cancel
func uring_accept_multishot(fd: i32, udata: i32) -> i32 {
    if (uring_sqe(IORING_OP_ACCEPT, fd, 0, 0, udata, 0) < 0) { return -1; }
    var tail: i32 = load32(__uring_base + 4) - 1;
    store64(__uring_sqbase + (tail & __uring_sqmask) * 32 + 16,
            i64(IORING_ACCEPT_MULTISHOT));
    return 0;
}

// arm a multishot recv completing into registered slot idx: a CQE per
// inbound message, data landing in the slot, until EOF/error (no MORE
// flag on the final CQE)
func uring_recv_multishot(fd: i32, idx: i32, len: i32, udata: i32) -> i32 {
    if (uring_sqe(IORING_OP_RECV, fd, idx, len, udata,
                  IOSQE_FIXED_BUFFER) < 0) { return -1; }
    var tail: i32 = load32(__uring_base + 4) - 1;
    store64(__uring_sqbase + (tail & __uring_sqmask) * 32 + 16,
            i64(IORING_RECV_MULTISHOT));
    return 0;
}

// SQPOLL: queued SQEs are consumed by the kernel poller straight from
// the shared ring — the only crossing ever paid is the wakeup kick
// when the poller idled out (NEED_WAKEUP raised in the header)
func uring_sqpoll_flush() -> i32 {
    if ((uring_ring_flags() & IORING_SQ_NEED_WAKEUP) != 0) {
        return cret(SYS_io_uring_enter(__uring_fd, 0, 0,
                                       IORING_ENTER_SQ_WAKEUP, 0, 0));
    }
    return 0;
}

// SQPOLL: wait until at least min_complete CQEs are reapable.  The CQ
// ring is checked first — the poller publishes completions without any
// crossing, so a loaded loop never enters at all.
func uring_sqpoll_wait(min_complete: i32, timeout_ms: i32) -> i32 {
    uring_sqpoll_flush();
    if (uring_cq_ready() >= min_complete) { return uring_cq_ready(); }
    var flags: i32 = IORING_ENTER_GETEVENTS;
    var sig: i32 = 0;
    if (timeout_ms > 0) {
        flags = flags | IORING_ENTER_TIMEOUT_MS;
        sig = timeout_ms;
    }
    if (cret(SYS_io_uring_enter(__uring_fd, 0, min_complete, flags,
                                sig, 0)) < 0) {
        return -1;
    }
    return uring_cq_ready();
}

// ---- perf events: the guest profiling surface ----
// attr (24 bytes): {u32 type, u32 config_ptr, u64 sample_freq,
//                   u32 ring_capacity, u32 disabled}
const PERF_TYPE_COUNTER = 0;
const PERF_TYPE_TRACEPOINT = 1;
const PERF_TYPE_SAMPLING = 2;
const PERF_IOC_ENABLE = 0x2400;
const PERF_IOC_DISABLE = 0x2401;
const PERF_IOC_RESET = 0x2403;

buffer __perf_attr[24];
buffer __perf_val[8];

// pid scoping follows perf_event_open: 0 = self, -1 = system-wide
func perf_open_scoped(type: i32, config: i32, freq: i64, capacity: i32, pid: i32) -> i32 {
    store32(__perf_attr, type);
    store32(__perf_attr + 4, config);
    store64(__perf_attr + 8, freq);
    store32(__perf_attr + 16, capacity);
    store32(__perf_attr + 20, 0);
    return cret(SYS_perf_event_open(__perf_attr, pid, -1, -1, 0));
}

func perf_open_sampler(freq: i32, pid: i32) -> i32 {
    return perf_open_scoped(PERF_TYPE_SAMPLING, 0, i64(freq), 0, pid);
}

func perf_open_counter(name: i32, pid: i32) -> i32 {
    return perf_open_scoped(PERF_TYPE_COUNTER, name, i64(0), 0, pid);
}

func perf_open_tracepoint(name: i32, pid: i32) -> i32 {
    return perf_open_scoped(PERF_TYPE_TRACEPOINT, name, i64(0), 0, pid);
}

func perf_enable(fd: i32) -> i32 { return cret(SYS_ioctl(fd, PERF_IOC_ENABLE, 0)); }
func perf_disable(fd: i32) -> i32 { return cret(SYS_ioctl(fd, PERF_IOC_DISABLE, 0)); }
func perf_reset(fd: i32) -> i32 { return cret(SYS_ioctl(fd, PERF_IOC_RESET, 0)); }

// counting events: the 8-byte little-endian value, non-consuming
func perf_read_count(fd: i32) -> i64 {
    if (cret(SYS_read(fd, __perf_val, 8)) < 8) { return i64(0) - i64(1); }
    return load64(__perf_val);
}

// sample-record accessors (header <IHH: size/type/misc, then the
// <QiiQI body and nframes x {u16 len, name bytes})
func ps_size(p: i32) -> i32 { return load32(p); }
func ps_type(p: i32) -> i32 { return load16u(p + 4); }
func ps_time_lo(p: i32) -> i32 { return i32(load64(p + 8)); }
func ps_pid(p: i32) -> i32 { return load32(p + 16); }
func ps_nice(p: i32) -> i32 { return load32(p + 20); }
func ps_nframes(p: i32) -> i32 { return load32(p + 32); }
// frame i's {len, name_ptr}: walk the variable-length tail
func ps_frame(p: i32, i: i32) -> i32 {
    var q: i32 = p + 36;
    var n: i32 = 0;
    while (n < i) {
        q = q + 2 + load16u(q);
        n = n + 1;
    }
    return q;
}
func ps_frame_len(f: i32) -> i32 { return load16u(f); }
func ps_frame_name(f: i32) -> i32 { return f + 2; }

// ---- time ----
buffer __ts_buf[16];

func monotime_ms() -> i32 {
    SYS_clock_gettime(1, __ts_buf);
    return i32(load64(__ts_buf) * i64(1000) + load64(__ts_buf + 8) / i64(1000000));
}

func sleep_ms(ms: i32) {
    store64(__ts_buf, i64(ms / 1000));
    store64(__ts_buf + 8, i64(ms % 1000) * i64(1000000));
    SYS_nanosleep(__ts_buf, 0);
}

// ---- scheduling ----
func getnice() -> i32 { return 20 - i32(SYS_getpriority(0, 0)); }
// glibc convention: returns the new nice value (raw syscall returns 0)
func nice(inc: i32) -> i32 {
    var r: i32 = i32(SYS_nice(inc));
    if (r < 0) { return r; }
    return getnice();
}
"""

LIBC_SOURCE = LIBC_EXTERNS + LIBC_CORE


def with_libc(app_source: str) -> str:
    """Concatenate the guest libc with application source."""
    return LIBC_SOURCE + "\n" + app_source
