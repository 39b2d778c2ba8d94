//! A zero-dependency Linux `epoll` readiness reactor.
//!
//! This crate is the async serving core under `xmlpruned`: a single
//! event loop owns every connection, parked connections cost nothing
//! between requests, and deadlines live in a coarse [`TimerWheel`]
//! instead of per-socket poll ticks. It deliberately stops short of a
//! futures executor — the server drives explicit per-connection state
//! machines, so all it needs from this layer is:
//!
//! - [`Reactor::register`]/[`Reactor::modify`]/[`Reactor::deregister`]
//!   with a caller-owned [`Token`] cookie,
//! - [`Reactor::poll`] delivering [`Event`]s in level or edge mode,
//! - a cross-thread [`Waker`] (eventfd-backed) so CPU workers and
//!   shutdown handlers can interrupt a blocked poll,
//! - [`TimerWheel`] for read/write/idle deadlines,
//! - [`ReactorMetrics`] counters surfaced in `/metrics`.
//!
//! There is no `libc` dependency: `sys` declares the handful of
//! syscall wrappers directly (`std` already links the platform C
//! library). On non-Linux targets [`supported`] returns `false`, every
//! constructor fails with `ErrorKind::Unsupported`, and the server
//! serves with its portable thread-per-connection driver instead.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::io;
use std::os::fd::RawFd;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

// The one module in the workspace allowed to contain `unsafe`: the raw
// epoll/eventfd/setsockopt FFI, kept behind safe wrappers; tests/surface.rs
// fails on `unsafe` outside this file (and the bench crate's allocator).
#[allow(unsafe_code)]
mod sys;
pub mod timer;

pub use sys::{bind_reuseport, raise_nofile_limit, set_socket_buffers, supported, writev};
pub use timer::{TimerEntry, TimerWheel, DEFAULT_TICK};

/// The token value the reactor reserves for its internal waker fd.
/// Caller tokens must stay below this.
pub const WAKER_TOKEN: u64 = u64::MAX;

/// A caller-owned cookie attached to a registered fd and returned
/// verbatim with every readiness [`Event`] for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Token(pub u64);

/// Which readiness directions a registration wants events for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Deliver events when the fd becomes readable (or the peer
    /// half-closes — `EPOLLRDHUP` is always requested alongside).
    pub readable: bool,
    /// Deliver events when the fd becomes writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Write-only interest.
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Both directions.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
    /// Registered but silent (only `ERR`/`HUP`, which epoll always
    /// reports). Used to park a connection during backpressure.
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };

    fn bits(self) -> u32 {
        let mut b = 0;
        if self.readable {
            b |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if self.writable {
            b |= sys::EPOLLOUT;
        }
        b
    }
}

/// Level- vs edge-triggered delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Report readiness on every poll while the condition holds.
    Level,
    /// Report each readiness transition once; the consumer must read or
    /// write until `WouldBlock` before the next event arrives.
    Edge,
}

impl Mode {
    fn bits(self) -> u32 {
        match self {
            Mode::Level => 0,
            Mode::Edge => sys::EPOLLET,
        }
    }
}

/// One readiness event out of [`Reactor::poll`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The cookie from registration.
    pub token: Token,
    /// The fd is readable (includes peer half-close so a final read
    /// observes EOF).
    pub readable: bool,
    /// The fd is writable.
    pub writable: bool,
    /// Hang-up: the peer closed (`EPOLLHUP`/`EPOLLRDHUP`).
    pub hangup: bool,
    /// Error condition on the fd (`EPOLLERR`); read/write to collect it.
    pub error: bool,
}

/// Monotonic counters the server merges into `/metrics`.
#[derive(Debug, Default)]
pub struct ReactorMetrics {
    /// Currently registered fds (excluding the internal waker).
    pub registered: AtomicUsize,
    /// Total readiness events delivered.
    pub ready_events: AtomicU64,
    /// Total `poll` calls that returned.
    pub polls: AtomicU64,
    /// Total waker interrupts observed.
    pub wakes: AtomicU64,
    /// Total timer-wheel entries fired (the loop increments this as it
    /// collects expirations; the wheel itself is reactor-agnostic).
    pub timer_fires: AtomicU64,
}

struct EventFd(RawFd);

impl Drop for EventFd {
    fn drop(&mut self) {
        sys::close(self.0);
    }
}

/// A cloneable, `Send + Sync` handle that interrupts a blocked
/// [`Reactor::poll`] from any thread.
#[derive(Clone)]
pub struct Waker {
    fd: Arc<EventFd>,
}

impl Waker {
    /// Wakes the reactor. Coalescing is fine: many wakes before the
    /// next poll deliver one interrupt.
    pub fn wake(&self) -> io::Result<()> {
        sys::eventfd_write(self.fd.0)
    }
}

/// The epoll instance plus its internal waker registration.
pub struct Reactor {
    epfd: RawFd,
    waker: Waker,
    metrics: Arc<ReactorMetrics>,
    /// Reused kernel-event buffer for `poll`.
    buf: Vec<sys::EpollEvent>,
}

impl Reactor {
    /// Creates the epoll instance and its eventfd waker.
    pub fn new() -> io::Result<Reactor> {
        let epfd = sys::epoll_create()?;
        let efd = match sys::eventfd() {
            Ok(fd) => fd,
            Err(e) => {
                sys::close(epfd);
                return Err(e);
            }
        };
        let waker = Waker {
            fd: Arc::new(EventFd(efd)),
        };
        // Level-triggered read interest on the waker: poll drains it, so
        // it only reports while a wake is actually pending.
        if let Err(e) = sys::epoll_ctl(epfd, sys::EPOLL_CTL_ADD, efd, sys::EPOLLIN, WAKER_TOKEN) {
            sys::close(epfd);
            return Err(e);
        }
        Ok(Reactor {
            epfd,
            waker,
            metrics: Arc::new(ReactorMetrics::default()),
            buf: vec![sys::EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    /// A handle that wakes this reactor from any thread.
    pub fn waker(&self) -> Waker {
        self.waker.clone()
    }

    /// The shared counters.
    pub fn metrics(&self) -> Arc<ReactorMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Registers `fd` for readiness events carrying `token`. The caller
    /// keeps ownership of the fd and must [`Self::deregister`] before
    /// closing it. `token` must be below [`WAKER_TOKEN`].
    pub fn register(
        &self,
        fd: RawFd,
        token: Token,
        interest: Interest,
        mode: Mode,
    ) -> io::Result<()> {
        debug_assert!(
            token.0 < WAKER_TOKEN,
            "token {token:?} collides with the waker"
        );
        sys::epoll_ctl(
            self.epfd,
            sys::EPOLL_CTL_ADD,
            fd,
            interest.bits() | mode.bits(),
            token.0,
        )?;
        self.metrics.registered.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Changes the interest set or mode of a registered fd.
    pub fn modify(
        &self,
        fd: RawFd,
        token: Token,
        interest: Interest,
        mode: Mode,
    ) -> io::Result<()> {
        sys::epoll_ctl(
            self.epfd,
            sys::EPOLL_CTL_MOD,
            fd,
            interest.bits() | mode.bits(),
            token.0,
        )
    }

    /// Removes a registration. The fd may be closed afterwards.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, 0, 0)?;
        self.metrics.registered.fetch_sub(1, Ordering::Relaxed);
        Ok(())
    }

    /// Waits up to `timeout` (forever when `None`) for readiness,
    /// appending events to `out`. Returns `true` when a [`Waker`]
    /// interrupt was among them (the waker event itself is consumed,
    /// not reported). Sub-millisecond timeouts round up so a pending
    /// timer tick cannot turn into a busy spin.
    pub fn poll(&mut self, timeout: Option<Duration>, out: &mut Vec<Event>) -> io::Result<bool> {
        let ms = match timeout {
            None => -1,
            Some(d) => d.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32,
        };
        let n = sys::epoll_wait(self.epfd, &mut self.buf, ms)?;
        self.metrics.polls.fetch_add(1, Ordering::Relaxed);
        let mut woken = false;
        for ev in &self.buf[..n] {
            // The struct may be packed (x86-64 ABI): copy fields out
            // rather than referencing them in place.
            let (bits, data) = (ev.events, ev.data);
            if data == WAKER_TOKEN {
                woken = true;
                self.metrics.wakes.fetch_add(1, Ordering::Relaxed);
                sys::eventfd_drain(self.waker.fd.0)?;
                continue;
            }
            self.metrics.ready_events.fetch_add(1, Ordering::Relaxed);
            out.push(Event {
                token: Token(data),
                readable: bits & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP) != 0,
                writable: bits & sys::EPOLLOUT != 0,
                hangup: bits & (sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
                error: bits & sys::EPOLLERR != 0,
            });
        }
        // A full buffer means more events may be pending; grow so big
        // fleets drain in one syscall next time.
        if n == self.buf.len() && n < 65_536 {
            self.buf
                .resize(n * 2, sys::EpollEvent { events: 0, data: 0 });
        }
        Ok(woken)
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        // The waker fd closes when the last Waker clone drops; the
        // epoll fd drops its interest list with it.
        sys::close(self.epfd);
    }
}
