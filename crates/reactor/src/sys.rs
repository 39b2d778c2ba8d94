//! The minimal FFI shim under the reactor: raw declarations of the
//! handful of Linux syscall wrappers the event loop needs (`epoll_*`,
//! `eventfd`, `setrlimit`, `writev`, `SO_REUSEPORT` socket setup) plus
//! the kernel ABI structs they take.
//!
//! The workspace rule is *no external crates*, so there is no `libc`
//! here — `std` already links the platform C library on every supported
//! target, which makes these symbols available to plain `extern "C"`
//! declarations. Everything is gated on `target_os = "linux"`; on other
//! platforms [`supported`] returns `false` and the server serves with
//! its portable thread-per-connection driver instead.

#![allow(clippy::missing_safety_doc)]

use std::io;

/// Whether this build has a real epoll backend.
pub const fn supported() -> bool {
    cfg!(target_os = "linux")
}

/// `EPOLLIN`: the fd is readable.
pub const EPOLLIN: u32 = 0x001;
/// `EPOLLOUT`: the fd is writable.
pub const EPOLLOUT: u32 = 0x004;
/// `EPOLLERR`: error condition (always reported, no need to register).
pub const EPOLLERR: u32 = 0x008;
/// `EPOLLHUP`: hang-up (always reported, no need to register).
pub const EPOLLHUP: u32 = 0x010;
/// `EPOLLRDHUP`: peer shut down the writing half.
pub const EPOLLRDHUP: u32 = 0x2000;
/// `EPOLLET`: edge-triggered delivery.
pub const EPOLLET: u32 = 1 << 31;

/// `EPOLL_CTL_ADD`
pub const EPOLL_CTL_ADD: i32 = 1;
/// `EPOLL_CTL_DEL`
pub const EPOLL_CTL_DEL: i32 = 2;
/// `EPOLL_CTL_MOD`
pub const EPOLL_CTL_MOD: i32 = 3;

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

/// The kernel's `struct epoll_event`. On x86-64 the kernel ABI packs it
/// (12 bytes); other architectures use natural alignment (16 bytes).
#[cfg(target_arch = "x86_64")]
#[repr(C, packed)]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Ready/interest bit set (`EPOLLIN | …`).
    pub events: u32,
    /// Caller-owned cookie, returned verbatim with each event.
    pub data: u64,
}

/// The kernel's `struct epoll_event` (naturally aligned variant).
#[cfg(not(target_arch = "x86_64"))]
#[repr(C)]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Ready/interest bit set (`EPOLLIN | …`).
    pub events: u32,
    /// Caller-owned cookie, returned verbatim with each event.
    pub data: u64,
}

#[cfg(target_os = "linux")]
mod ffi {
    use super::EpollEvent;

    #[repr(C)]
    pub struct Rlimit {
        pub rlim_cur: u64,
        pub rlim_max: u64,
    }

    pub const RLIMIT_NOFILE: i32 = 7;

    /// The kernel's `struct iovec`. `std::io::IoSlice` is documented to
    /// be ABI-compatible with this layout on Unix, which is what lets
    /// the safe [`super::writev`] wrapper pass a slice of `IoSlice`s
    /// straight through.
    #[repr(C)]
    pub struct IoVec {
        pub base: *const u8,
        pub len: usize,
    }

    /// The kernel's `struct sockaddr_in` (fields in network byte order).
    #[repr(C)]
    pub struct SockaddrIn {
        pub family: u16,
        pub port: u16,
        pub addr: u32,
        pub zero: [u8; 8],
    }

    /// The kernel's `struct sockaddr_in6`.
    #[repr(C)]
    pub struct SockaddrIn6 {
        pub family: u16,
        pub port: u16,
        pub flowinfo: u32,
        pub addr: [u8; 16],
        pub scope_id: u32,
    }

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn eventfd(initval: u32, flags: i32) -> i32;
        pub fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        pub fn writev(fd: i32, iov: *const IoVec, iovcnt: i32) -> isize;
        pub fn close(fd: i32) -> i32;
        pub fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        pub fn bind(fd: i32, addr: *const u8, len: u32) -> i32;
        pub fn listen(fd: i32, backlog: i32) -> i32;
        pub fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        pub fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
        pub fn setsockopt(fd: i32, level: i32, name: i32, value: *const u8, len: u32) -> i32;
    }
}

fn last_err() -> io::Error {
    io::Error::last_os_error()
}

#[cfg_attr(target_os = "linux", allow(dead_code))]
fn unsupported() -> io::Error {
    io::Error::new(
        io::ErrorKind::Unsupported,
        "the epoll reactor is only available on Linux",
    )
}

/// `epoll_create1(EPOLL_CLOEXEC)` → epoll fd.
pub fn epoll_create() -> io::Result<i32> {
    #[cfg(target_os = "linux")]
    {
        // SAFETY: plain syscall wrapper, no pointers involved.
        let fd = unsafe { ffi::epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(last_err());
        }
        Ok(fd)
    }
    #[cfg(not(target_os = "linux"))]
    Err(unsupported())
}

/// `epoll_ctl` with an interest mask and cookie (ADD/MOD), or DEL.
pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, events: u32, data: u64) -> io::Result<()> {
    #[cfg(target_os = "linux")]
    {
        let mut ev = EpollEvent { events, data };
        let evp = if op == EPOLL_CTL_DEL {
            std::ptr::null_mut()
        } else {
            &mut ev as *mut EpollEvent
        };
        // SAFETY: `evp` is either null (DEL ignores it) or points to a
        // live, properly laid-out EpollEvent for the duration of the call.
        if unsafe { ffi::epoll_ctl(epfd, op, fd, evp) } < 0 {
            return Err(last_err());
        }
        Ok(())
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (epfd, op, fd, events, data);
        Err(unsupported())
    }
}

/// `epoll_wait` into `events`, returning how many fired. `timeout_ms < 0`
/// blocks indefinitely. `EINTR` is reported as `Ok(0)` so callers treat
/// signals as a spurious wake-up.
pub fn epoll_wait(epfd: i32, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
    #[cfg(target_os = "linux")]
    {
        // SAFETY: the pointer/len pair describes the caller's live
        // slice; the kernel writes at most `len` entries.
        let n = unsafe {
            ffi::epoll_wait(
                epfd,
                events.as_mut_ptr(),
                events.len().min(i32::MAX as usize) as i32,
                timeout_ms,
            )
        };
        if n < 0 {
            let e = last_err();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        Ok(n as usize)
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (epfd, events, timeout_ms);
        Err(unsupported())
    }
}

/// A nonblocking close-on-exec `eventfd` for cross-thread wake-ups.
pub fn eventfd() -> io::Result<i32> {
    #[cfg(target_os = "linux")]
    {
        // SAFETY: plain syscall wrapper, no pointers involved.
        let fd = unsafe { ffi::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(last_err());
        }
        Ok(fd)
    }
    #[cfg(not(target_os = "linux"))]
    Err(unsupported())
}

/// Writes one `u64` increment to an eventfd (the wake signal). A full
/// counter (`EAGAIN`) means a wake is already pending — success.
pub fn eventfd_write(fd: i32) -> io::Result<()> {
    #[cfg(target_os = "linux")]
    {
        let one: u64 = 1;
        // SAFETY: writes exactly 8 bytes from a live u64.
        let n = unsafe { ffi::write(fd, &one as *const u64 as *const u8, 8) };
        if n < 0 {
            let e = last_err();
            if e.kind() == io::ErrorKind::WouldBlock {
                return Ok(());
            }
            return Err(e);
        }
        Ok(())
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = fd;
        Err(unsupported())
    }
}

/// Drains an eventfd's counter (resetting it to zero). Returns whether
/// any wake was pending.
pub fn eventfd_drain(fd: i32) -> io::Result<bool> {
    #[cfg(target_os = "linux")]
    {
        let mut buf = 0u64;
        // SAFETY: reads exactly 8 bytes into a live u64.
        let n = unsafe { ffi::read(fd, &mut buf as *mut u64 as *mut u8, 8) };
        if n < 0 {
            let e = last_err();
            if e.kind() == io::ErrorKind::WouldBlock {
                return Ok(false);
            }
            return Err(e);
        }
        Ok(buf > 0)
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = fd;
        Err(unsupported())
    }
}

/// `close(fd)`, ignoring errors (used from Drop impls).
pub fn close(fd: i32) {
    #[cfg(target_os = "linux")]
    // SAFETY: plain syscall wrapper; double-close is prevented by the
    // owning types in `poll.rs`.
    unsafe {
        ffi::close(fd);
    }
    #[cfg(not(target_os = "linux"))]
    let _ = fd;
}

/// Raises `RLIMIT_NOFILE` toward `want` fds (capped at the hard limit)
/// and returns the resulting soft limit; never lowers it. `xmlpruned`
/// calls this at startup with `--max-connections` plus a reserve, and the
/// server's connection-sweep test, which holds both ends of a thousand
/// sockets, before opening them.
pub fn raise_nofile_limit(want: u64) -> io::Result<u64> {
    #[cfg(target_os = "linux")]
    {
        let mut lim = ffi::Rlimit {
            rlim_cur: 0,
            rlim_max: 0,
        };
        // SAFETY: the pointer targets a live Rlimit the kernel fills in.
        if unsafe { ffi::getrlimit(ffi::RLIMIT_NOFILE, &mut lim) } < 0 {
            return Err(last_err());
        }
        if lim.rlim_cur >= want {
            return Ok(lim.rlim_cur);
        }
        let new = ffi::Rlimit {
            rlim_cur: want.min(lim.rlim_max),
            rlim_max: lim.rlim_max,
        };
        // SAFETY: the pointer targets a live, initialized Rlimit.
        if unsafe { ffi::setrlimit(ffi::RLIMIT_NOFILE, &new) } < 0 {
            return Err(last_err());
        }
        Ok(new.rlim_cur)
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = want;
        Err(unsupported())
    }
}

/// Gathered write: one `writev(2)` call over `bufs`, writing the slices
/// back-to-back without first copying them into a contiguous buffer.
/// Returns the byte count the kernel accepted (short writes are normal
/// on a nonblocking socket).
pub fn writev(fd: i32, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
    #[cfg(target_os = "linux")]
    {
        // Linux caps one call at IOV_MAX (1024) segments.
        let cnt = bufs.len().min(1024) as i32;
        // SAFETY: `std::io::IoSlice` is guaranteed ABI-compatible with
        // the kernel's iovec on Unix; the slice stays live across the
        // call and the kernel only reads through it.
        let n = unsafe { ffi::writev(fd, bufs.as_ptr() as *const ffi::IoVec, cnt) };
        if n < 0 {
            return Err(last_err());
        }
        Ok(n as usize)
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (fd, bufs);
        Err(unsupported())
    }
}

/// Binds a listening TCP socket with `SO_REUSEPORT` (and `SO_REUSEADDR`)
/// set before `bind`, so several listeners in one process can share a
/// port and the kernel shards incoming connections across their accept
/// queues — no userspace accept lock. The returned listener owns the fd.
pub fn bind_reuseport(addr: std::net::SocketAddr) -> io::Result<std::net::TcpListener> {
    #[cfg(target_os = "linux")]
    {
        use std::os::fd::FromRawFd;
        const AF_INET: i32 = 2;
        const AF_INET6: i32 = 10;
        const SOCK_STREAM: i32 = 1;
        const SOCK_CLOEXEC: i32 = 0o2000000;
        const SOL_SOCKET: i32 = 1;
        const SO_REUSEADDR: i32 = 2;
        const SO_REUSEPORT: i32 = 15;

        let domain = if addr.is_ipv4() { AF_INET } else { AF_INET6 };
        // SAFETY: plain syscall wrapper, no pointers involved.
        let fd = unsafe { ffi::socket(domain, SOCK_STREAM | SOCK_CLOEXEC, 0) };
        if fd < 0 {
            return Err(last_err());
        }
        let fail = |fd: i32| {
            let e = last_err();
            close(fd);
            Err(e)
        };
        let one: i32 = 1;
        let p = &one as *const i32 as *const u8;
        let n = std::mem::size_of::<i32>() as u32;
        // SAFETY: the pointer targets a live i32; the kernel copies it.
        if unsafe { ffi::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, p, n) } < 0 {
            return fail(fd);
        }
        // SAFETY: as above.
        if unsafe { ffi::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, p, n) } < 0 {
            return fail(fd);
        }
        let bound = match addr {
            std::net::SocketAddr::V4(v4) => {
                let sa = ffi::SockaddrIn {
                    family: AF_INET as u16,
                    port: v4.port().to_be(),
                    // from_ne_bytes keeps the octets in memory order,
                    // which *is* network byte order for an IPv4 address.
                    addr: u32::from_ne_bytes(v4.ip().octets()),
                    zero: [0; 8],
                };
                let len = std::mem::size_of::<ffi::SockaddrIn>() as u32;
                // SAFETY: the pointer/len pair describes a live, fully
                // initialized sockaddr_in; the kernel copies it.
                unsafe { ffi::bind(fd, &sa as *const ffi::SockaddrIn as *const u8, len) }
            }
            std::net::SocketAddr::V6(v6) => {
                let sa = ffi::SockaddrIn6 {
                    family: AF_INET6 as u16,
                    port: v6.port().to_be(),
                    flowinfo: v6.flowinfo().to_be(),
                    addr: v6.ip().octets(),
                    scope_id: v6.scope_id(),
                };
                let len = std::mem::size_of::<ffi::SockaddrIn6>() as u32;
                // SAFETY: as above, for sockaddr_in6.
                unsafe { ffi::bind(fd, &sa as *const ffi::SockaddrIn6 as *const u8, len) }
            }
        };
        if bound < 0 {
            return fail(fd);
        }
        // SAFETY: plain syscall wrapper, no pointers involved.
        if unsafe { ffi::listen(fd, 1024) } < 0 {
            return fail(fd);
        }
        // SAFETY: `fd` is a fresh, owned, listening TCP socket;
        // from_raw_fd transfers its ownership to the TcpListener.
        Ok(unsafe { std::net::TcpListener::from_raw_fd(fd) })
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = addr;
        Err(unsupported())
    }
}

/// Sets a socket's kernel send **and** receive buffers to `bytes` via
/// `setsockopt(SOL_SOCKET, SO_{SND,RCV}BUF)`. Tests use this to shrink
/// loopback buffers until flow control becomes observable at test-sized
/// payloads; the kernel doubles the value internally and clamps it to
/// the sysctl ceilings.
pub fn set_socket_buffers(fd: i32, bytes: i32) -> io::Result<()> {
    #[cfg(target_os = "linux")]
    {
        const SOL_SOCKET: i32 = 1;
        const SO_SNDBUF: i32 = 7;
        const SO_RCVBUF: i32 = 8;
        let p = &bytes as *const i32 as *const u8;
        let n = std::mem::size_of::<i32>() as u32;
        // SAFETY: the pointer targets a live i32 for the duration of
        // each call; the kernel copies, never retains it.
        if unsafe { ffi::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, p, n) } < 0 {
            return Err(last_err());
        }
        // SAFETY: as above.
        if unsafe { ffi::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, p, n) } < 0 {
            return Err(last_err());
        }
        Ok(())
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (fd, bytes);
        Err(unsupported())
    }
}
