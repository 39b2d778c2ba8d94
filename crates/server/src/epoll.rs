//! The epoll driver: `config.reactor_threads` event loops, each owning
//! a slab of [`Connection`] machines and everything the machine itself
//! refuses to know about — sockets, the clock, epoll interest, the
//! timer wheel, the executor lane.
//!
//! ## Shape
//!
//! [`serve`] spawns one [`run_loop`] per listener. Each loop owns an
//! [`xproj_reactor::Reactor`] (epoll + eventfd waker), a [`TimerWheel`],
//! a slab of [`Slot`]s (socket + machine), its own `SO_REUSEPORT`-bound
//! listener (the kernel shards accepts across the loops — no shared
//! accept lock), and its own executor lane: scoped threads that pull
//! `(token, Job)` off a channel, [`run_job`] them, and push
//! `(token, Done)` back through a queue + waker. The loop is the
//! engine's thread: a job the machine calls `bounded()` — a feed of at
//! most two buffer units, a finish, a compile or a fallback evaluation
//! within its step budget — runs right here, where it was produced, and
//! only work nothing bounds (a compile or an evaluation past its budget
//! among it) crosses to the lane. A
//! loop runs at most one such bounded slice per job and
//! [`LOOP_JOBS_PER_EVENT`] jobs per event, and blocks on nothing but
//! `epoll_wait`. Everything cross-cutting — caches, the DTD registry,
//! metrics, the admission count — lives behind the shared
//! [`ServerState`]; `/admin/shutdown` fans out to every loop's waker.
//!
//! ## What the driver does, and nothing else
//!
//! Every event becomes one [`Input`] fed to one machine by
//! [`EventLoop::drive`], which then *settles* the slot from what the
//! machine reports back:
//!
//! * a returned [`Job`] runs where the machine's `bounded()` says — on
//!   this thread, its `Done` fed straight back, or on the executor lane
//!   (also the overflow once an event has run its budget of jobs here);
//! * queued frames are written with gathered `writev` until the socket
//!   would block, each success fed back as `Input::Written`;
//! * [`Connection::wants_read`] + pending output become epoll interest;
//! * [`Connection::deadline`] is armed on the wheel. Cancellation is a
//!   generation bump; a wheel entry whose deadline moved later re-arms
//!   itself lazily when it fires;
//! * [`Connection::half_closed`] shuts the socket's write side;
//!   [`Connection::is_closed`] frees the slot.
//!
//! The driver never looks inside a request: no phase, no endpoint, no
//! job kind, no response bytes — except the admission `503` it hands a
//! refusing machine (see [`crate::admit`]).

use crate::conn::{run_job, run_on_loop, Connection, Done, Input, Job, READ_BUDGET};
use crate::state::ServerState;
use crate::{admit, classify_accept_error, AcceptFailure, ShutdownReport, ACCEPT_STALL_BACKOFF};
use std::collections::VecDeque;
use std::io::{ErrorKind, IoSlice, Read};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use xproj_reactor::{Event, Interest, Mode, Reactor, TimerEntry, TimerWheel, Token, DEFAULT_TICK};

/// The listener's reactor token (`u64::MAX` is the reactor's waker).
const LISTENER_TOKEN: u64 = u64::MAX - 1;
/// Timer-wheel slots: 512 × 25 ms ≈ 12.8 s per revolution, covering the
/// default 10 s read deadline without wrapping.
const WHEEL_SLOTS: usize = 512;
/// Gather slices handed to one `writev` call (well under IOV_MAX).
const MAX_WRITE_IOV: usize = 64;
/// The fairness bound: the most jobs one event runs on the loop for one
/// connection. A loop-run job feeds at most two buffer units (the
/// machine's input gate), so an event costs its neighbours at most this
/// many such slices; the job after that takes the executor lane. Only
/// pipelining reaches it — one read can hold ≈ 2 000 tiny requests.
const LOOP_JOBS_PER_EVENT: usize = 8;

/// One connection as the loop holds it: the socket, the machine, and
/// the driver-side bookkeeping of what is registered and armed.
struct Slot {
    stream: TcpStream,
    conn: Connection,
    /// Interest currently registered with epoll.
    registered: Interest,
    /// Counted in the server-wide `open_conns` admission gauge (false
    /// for sockets only held open to flush a `503` reject).
    admitted: bool,
    /// Live timer generation; bumping it cancels the wheel entry.
    timer_gen: u64,
    /// When the live wheel entry (if any) will fire.
    timer_armed_at: Option<Instant>,
    /// The write side has been shut down (lingering close).
    write_shut: bool,
}

/// A slab of connections addressed by `(generation << 32) | index`
/// tokens, so a recycled slot never receives a stale event, timer or
/// completion.
struct Slab {
    entries: Vec<Option<Slot>>,
    gens: Vec<u32>,
    free: Vec<u32>,
}

impl Slab {
    fn new() -> Slab {
        Slab {
            entries: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, slot: Slot) -> u64 {
        let idx = match self.free.pop() {
            Some(i) => i as usize,
            None => {
                self.entries.push(None);
                self.gens.push(0);
                self.entries.len() - 1
            }
        };
        self.entries[idx] = Some(slot);
        ((self.gens[idx] as u64) << 32) | idx as u64
    }

    fn index(&self, token: u64) -> Option<usize> {
        let idx = (token & 0xffff_ffff) as usize;
        (idx < self.entries.len() && self.gens[idx] == (token >> 32) as u32).then_some(idx)
    }

    fn get_mut(&mut self, token: u64) -> Option<&mut Slot> {
        let idx = self.index(token)?;
        self.entries[idx].as_mut()
    }

    fn remove(&mut self, token: u64) -> Option<Slot> {
        let idx = self.index(token)?;
        let slot = self.entries[idx].take();
        if slot.is_some() {
            self.gens[idx] = self.gens[idx].wrapping_add(1);
            self.free.push(idx as u32);
        }
        slot
    }

    fn len(&self) -> usize {
        self.entries.len() - self.free.len()
    }

    fn tokens(&self) -> Vec<u64> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.is_some())
            .map(|(i, _)| ((self.gens[i] as u64) << 32) | i as u64)
            .collect()
    }
}

/// One event's turn at a connection: the clock reading its inputs are
/// stamped with (refreshed after every job run here) and what is left
/// of its [`LOOP_JOBS_PER_EVENT`].
struct Turn {
    now: Instant,
    loop_jobs: usize,
}

impl Turn {
    fn at(now: Instant) -> Turn {
        Turn {
            now,
            loop_jobs: LOOP_JOBS_PER_EVENT,
        }
    }
}

/// Everything one event loop threads through its helpers.
struct EventLoop<'s> {
    state: &'s ServerState,
    reactor: Reactor,
    wheel: TimerWheel,
    conns: Slab,
    /// The lane's queue. It is unbounded: a connection has at most one
    /// job in flight and admission bounds the connections.
    jobs_tx: mpsc::Sender<(u64, Job)>,
    /// The loop's one receive buffer: a readable event reads into it
    /// once and the machine copies out what it keeps.
    read_buf: Vec<u8>,
}

impl EventLoop<'_> {
    /// Feeds one input to a connection's machine at clock reading
    /// `now`, places the job it asks for, and settles the slot.
    fn drive(&mut self, token: u64, input: Input<'_>, now: Instant) {
        let Some(slot) = self.conns.get_mut(token) else {
            return; // the connection died before this event reached it
        };
        let job = slot.conn.handle(input, now, self.state);
        let mut turn = Turn::at(now);
        self.place(token, job, &mut turn);
        self.settle(token, &mut turn);
    }

    /// Runs a job where the machine's own policy puts it. One it calls
    /// `bounded()` runs here ([`run_on_loop`]: a compile or an evaluation
    /// under its step budget), its `Done` fed back at a fresh clock
    /// reading — and so does whatever the machine asks for next (a loop,
    /// not recursion: a read full of pipelined requests must not deepen
    /// the stack) until it asks for nothing. A job nothing bounds, a
    /// compile or an evaluation that overran its budget (it restarts
    /// there), or the job after this turn's
    /// budget is spent, takes the executor lane and comes back as an
    /// event of its own.
    fn place(&mut self, token: u64, mut job: Option<Job>, turn: &mut Turn) {
        while let Some(j) = job.take() {
            if turn.loop_jobs == 0 || !j.bounded() {
                return self.dispatch(token, j);
            }
            turn.loop_jobs -= 1;
            self.state.metrics.loop_jobs.fetch_add(1, Ordering::Relaxed);
            let done = match run_on_loop(j, self.state) {
                Ok(done) => done,
                Err(overran) => return self.dispatch(token, overran),
            };
            turn.now = Instant::now();
            let Some(slot) = self.conns.get_mut(token) else {
                return;
            };
            job = slot.conn.handle(Input::Done(done), turn.now, self.state);
        }
    }

    /// Brings the socket, epoll and the wheel in line with what the
    /// machine now reports: write what is queued, then close, half-
    /// close, re-register and re-arm as needed.
    fn settle(&mut self, token: u64, turn: &mut Turn) {
        loop {
            let Some(slot) = self.conns.get_mut(token) else {
                return;
            };
            if slot.conn.pending_out() == 0 || slot.conn.is_closed() {
                break;
            }
            let res = {
                let mut iov = [IoSlice::new(&[]); MAX_WRITE_IOV];
                let n = slot.conn.gather(&mut iov);
                xproj_reactor::writev(slot.stream.as_raw_fd(), &iov[..n])
            };
            let input = match res {
                Ok(0) => Input::Reset,
                Ok(n) => Input::Written(n),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => Input::Reset,
            };
            // Write progress can reopen the machine's out-queue gate
            // and make it ask for the next feed job.
            let job = slot.conn.handle(input, turn.now, self.state);
            self.place(token, job, turn);
        }
        let Some(slot) = self.conns.get_mut(token) else {
            return;
        };
        if slot.conn.is_closed() {
            self.remove(token);
            return;
        }
        if slot.conn.half_closed() && !slot.write_shut {
            slot.write_shut = true;
            let _ = slot.stream.shutdown(Shutdown::Write);
        }
        let want = Interest {
            readable: slot.conn.wants_read(),
            writable: slot.conn.pending_out() > 0,
        };
        if want != slot.registered {
            slot.registered = want;
            let _ = self
                .reactor
                .modify(slot.stream.as_raw_fd(), Token(token), want, Mode::Level);
        }
        // A live wheel entry that fires *earlier* is kept (it re-arms
        // lazily when it fires); one that would fire later is
        // superseded by a fresh entry.
        if let Some(deadline) = slot.conn.deadline() {
            if slot.timer_armed_at.is_none_or(|at| at > deadline) {
                slot.timer_gen += 1;
                slot.timer_armed_at = Some(deadline);
                self.wheel.arm(deadline, token, slot.timer_gen);
            }
        }
    }

    /// Frees a slot: deregister, release the admission count. (The
    /// machine has already accounted for its request.)
    fn remove(&mut self, token: u64) {
        if let Some(slot) = self.conns.remove(token) {
            let _ = self.reactor.deregister(slot.stream.as_raw_fd());
            if slot.admitted {
                self.state.open_conns.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Hands a job to the executor lane.
    fn dispatch(&mut self, token: u64, job: Job) {
        self.state
            .metrics
            .executor_jobs
            .fetch_add(1, Ordering::Relaxed);
        self.state
            .metrics
            .executor_queue_depth
            .fetch_add(1, Ordering::Relaxed);
        if self.jobs_tx.send((token, job)).is_err() {
            // Workers gone (teardown): fail the owning connection
            // rather than hang it.
            self.state
                .metrics
                .executor_queue_depth
                .fetch_sub(1, Ordering::Relaxed);
            self.drive(token, Input::Reset, Instant::now());
        }
    }

    /// One read of newly-arrived wire bytes (at most the machine's
    /// read budget; level-triggered epoll re-delivers the rest).
    fn read_ready(&mut self, token: u64, now: Instant) {
        let Some(slot) = self.conns.get_mut(token) else {
            return;
        };
        if !slot.conn.wants_read() {
            return; // a gate shut since this event was queued
        }
        let mut buf = std::mem::take(&mut self.read_buf);
        let input = loop {
            match slot.stream.read(&mut buf) {
                Ok(0) => break Some(Input::Eof),
                Ok(n) => break Some(Input::Bytes(&buf[..n])),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => break None,
                Err(_) => break Some(Input::Reset),
            }
        };
        if let Some(input) = input {
            self.drive(token, input, now);
        }
        self.read_buf = buf;
    }

    /// One connection's readiness event.
    fn handle_event(&mut self, ev: &Event) {
        // A fresh reading per event: request latency is measured
        // between the clock values the machine is handed.
        let now = Instant::now();
        let token = ev.token.0;
        if ev.error {
            self.drive(token, Input::Reset, now);
            return;
        }
        if ev.writable {
            self.settle(token, &mut Turn::at(now));
        }
        if ev.readable {
            self.read_ready(token, now);
        }
    }

    /// A connection's wheel entry fired. The machine's deadline may
    /// have moved later since it was armed — re-arm lazily then.
    fn timer_fired(&mut self, entry: TimerEntry, now: Instant) {
        let Some(slot) = self.conns.get_mut(entry.token) else {
            return;
        };
        if entry.gen != slot.timer_gen {
            return; // cancelled
        }
        slot.timer_armed_at = None;
        match slot.conn.deadline() {
            Some(deadline) if now < deadline => {
                slot.timer_armed_at = Some(deadline);
                self.wheel.arm(deadline, entry.token, slot.timer_gen);
            }
            _ => self.drive(entry.token, Input::DeadlineReached, now),
        }
    }

    /// Accepts until the listener would block; [`admit`] decides
    /// between a serving machine and one that only delivers the `503`.
    ///
    /// Returns `true` when accept failed persistently (fd exhaustion,
    /// typically). The pending connection then stays in the backlog, so
    /// a level-triggered listener would re-fire on every poll and spin
    /// the loop flat out — the caller must deregister the listener and
    /// retry after [`ACCEPT_STALL_BACKOFF`] instead.
    ///
    /// A connection the kernel queued before this loop closed its
    /// listener is admitted even if shutdown has begun: its request may
    /// already be on the wire, and dropping it here would reset it. The
    /// shutdown transition decides whether it is idle.
    fn accept_ready(&mut self, listener: &TcpListener, now: Instant) -> bool {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_ok() {
                        let _ = stream.set_nodelay(true);
                        self.install(stream, now);
                    }
                }
                Err(e) => match classify_accept_error(&e, self.state) {
                    AcceptFailure::Drained => return false,
                    AcceptFailure::Transient => {}
                    AcceptFailure::Stalled => return true,
                },
            }
        }
    }

    fn install(&mut self, stream: TcpStream, now: Instant) {
        let (conn, admitted) = admit(self.state, now);
        let fd = stream.as_raw_fd();
        let token = self.conns.insert(Slot {
            stream,
            conn,
            registered: Interest::READABLE,
            admitted,
            timer_gen: 0,
            timer_armed_at: None,
            write_shut: false,
        });
        if self
            .reactor
            .register(fd, Token(token), Interest::READABLE, Mode::Level)
            .is_err()
        {
            self.conns.remove(token);
            if admitted {
                self.state.open_conns.fetch_sub(1, Ordering::Relaxed);
            }
            return;
        }
        self.settle(token, &mut Turn::at(now));
    }

    /// Shutdown began: tell every machine. "In flight" is judged from
    /// the client's side of the socket — a head sitting unread in a
    /// socket buffer is a request already sent — so every idle-looking
    /// connection gets one read before its machine classifies it.
    fn begin_drain(&mut self, now: Instant) {
        for token in self.conns.tokens() {
            if self.conns.get_mut(token).is_some_and(|s| s.conn.is_idle()) {
                self.read_ready(token, now);
            }
            self.drive(token, Input::ShuttingDown, now);
        }
    }

    /// The drain deadline passed: everything still in flight *on this
    /// loop* is aborted. (Counting our own slab — not the global
    /// in-flight gauge — keeps the sum correct when several loops hit
    /// their deadlines concurrently.)
    fn abort_all(&mut self, now: Instant) -> u64 {
        let tokens = self.conns.tokens();
        let aborting = tokens
            .iter()
            .filter(|&&t| self.conns.get_mut(t).is_some_and(|s| s.conn.is_active()))
            .count() as u64;
        self.state
            .metrics
            .aborted
            .fetch_add(aborting, Ordering::Relaxed);
        self.state.hard_abort();
        for token in tokens {
            self.drive(token, Input::Reset, now);
        }
        aborting
    }
}

/// The multi-loop serve entry point: blocks until shutdown, drains
/// in-flight requests up to the deadline, reports drained/aborted.
/// Spawns one [`run_loop`] per listener (each `SO_REUSEPORT`-bound to
/// the same port) and fans the shutdown wake out to every loop's waker.
pub(crate) fn serve(
    listeners: Vec<TcpListener>,
    state: &Arc<ServerState>,
) -> std::io::Result<ShutdownReport> {
    let nloops = listeners.len().max(1);
    let mut reactors = Vec::with_capacity(nloops);
    for _ in 0..nloops {
        reactors.push(Reactor::new()?);
    }
    let wakers: Vec<_> = reactors.iter().map(|r| r.waker()).collect();
    state
        .metrics
        .set_reactors(reactors.iter().map(|r| r.metrics()).collect());
    state.set_wake_hook(Box::new(move || {
        for w in &wakers {
            let _ = w.wake();
        }
    }));
    // Split the executor pool across the loops (at least one lane
    // each); the total stays close to `config.workers`.
    let per_loop_workers = state.config.workers.max(1).div_ceil(nloops).max(1);

    let results: Vec<std::io::Result<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = listeners
            .into_iter()
            .zip(reactors)
            .map(|(listener, reactor)| {
                scope.spawn(move || run_loop(listener, reactor, state, per_loop_workers))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reactor loop thread panicked"))
            .collect()
    });
    let mut aborted = 0;
    for r in results {
        aborted += r?;
    }
    Ok(ShutdownReport::new(state, aborted))
}

/// One event loop: owns its listener, epoll instance, timer wheel,
/// connection slab, and executor lane. Returns how many in-flight
/// requests this loop aborted at the drain deadline.
fn run_loop(
    listener: TcpListener,
    reactor: Reactor,
    state: &Arc<ServerState>,
    workers: usize,
) -> std::io::Result<u64> {
    listener.set_nonblocking(true)?;
    let register_listener = |reactor: &Reactor| {
        reactor.register(
            listener.as_raw_fd(),
            Token(LISTENER_TOKEN),
            Interest::READABLE,
            Mode::Level,
        )
    };
    register_listener(&reactor)?;
    let waker = reactor.waker();
    let (jobs_tx, jobs_rx) = mpsc::channel::<(u64, Job)>();
    let jobs_rx = Mutex::new(jobs_rx);
    let dones: Mutex<VecDeque<(u64, Done)>> = Mutex::new(VecDeque::new());
    let reactor_metrics = reactor.metrics();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let (jobs_rx, dones) = (&jobs_rx, &dones);
            let state: &ServerState = state;
            let waker = waker.clone();
            scope.spawn(move || loop {
                let job = jobs_rx.lock().unwrap().recv();
                let Ok((token, job)) = job else { break };
                let done = run_job(job, state);
                dones.lock().unwrap().push_back((token, done));
                let _ = waker.wake();
            });
        }

        let mut lp = EventLoop {
            state,
            reactor,
            wheel: TimerWheel::new(WHEEL_SLOTS, DEFAULT_TICK),
            conns: Slab::new(),
            jobs_tx,
            read_buf: vec![0; READ_BUDGET],
        };

        let mut events: Vec<Event> = Vec::new();
        let mut fired: Vec<TimerEntry> = Vec::new();
        let mut listener_open = true;
        // While `Some`, the listener is deregistered because accept hit
        // a persistent error (fd exhaustion): retried at the deadline
        // rather than spinning on level-triggered readiness.
        let mut accept_paused_until: Option<Instant> = None;
        let mut drain_deadline: Option<Instant> = None;

        // Dropping the loop on the way out drops `jobs_tx`, closing the
        // channel; the scope then joins the workers.
        loop {
            let now = Instant::now();
            // Shutdown transition: drain this listener's accept queue
            // (with `SO_REUSEPORT` the shutdown request may have
            // reached a sibling loop first, and a queued connection is
            // a request already sent), close it, start the drain clock.
            if state.is_shutting_down() && listener_open {
                let _ = lp.accept_ready(&listener, now);
                if accept_paused_until.take().is_none() {
                    let _ = lp.reactor.deregister(listener.as_raw_fd());
                }
                listener_open = false;
                drain_deadline = Some(now + state.config.drain_deadline);
                lp.begin_drain(now);
            }
            if !listener_open {
                if lp.conns.len() == 0 {
                    return Ok(0);
                }
                if drain_deadline.is_some_and(|dd| now >= dd) {
                    return Ok(lp.abort_all(now));
                }
            }

            // An accept stall backoff that has run out: put the
            // listener back; if registration itself fails (still out of
            // fds), stay paused another round.
            if accept_paused_until.is_some_and(|until| listener_open && now >= until) {
                accept_paused_until = match register_listener(&lp.reactor) {
                    Ok(()) => None,
                    Err(_) => Some(now + ACCEPT_STALL_BACKOFF),
                };
            }

            // Poll timeout: next wheel tick, bounded by the drain
            // deadline while shutting down and by an accept-stall
            // backoff while the listener is parked.
            let mut timeout = lp.wheel.next_timeout(now);
            for bound in [drain_deadline, accept_paused_until].into_iter().flatten() {
                let until = bound.saturating_duration_since(now);
                timeout = Some(timeout.map_or(until, |t| t.min(until)));
            }
            events.clear();
            match lp.reactor.poll(timeout, &mut events) {
                Ok(_woken) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }

            for ev in &events {
                if ev.token.0 != LISTENER_TOKEN {
                    lp.handle_event(ev);
                } else if listener_open && lp.accept_ready(&listener, Instant::now()) {
                    let _ = lp.reactor.deregister(listener.as_raw_fd());
                    accept_paused_until = Some(Instant::now() + ACCEPT_STALL_BACKOFF);
                }
            }

            // Executor completions (the waker fired, or we were up
            // anyway — drain regardless), each at a fresh clock reading.
            loop {
                let done = dones.lock().unwrap().pop_front();
                let Some((token, done)) = done else { break };
                state
                    .metrics
                    .executor_queue_depth
                    .fetch_sub(1, Ordering::Relaxed);
                lp.drive(token, Input::Done(done), Instant::now());
            }

            // Timers.
            let now = Instant::now();
            fired.clear();
            let n = lp.wheel.advance(now, &mut fired);
            if n > 0 {
                reactor_metrics
                    .timer_fires
                    .fetch_add(n as u64, Ordering::Relaxed);
            }
            for entry in fired.drain(..) {
                lp.timer_fired(entry, now);
            }
        }
    })
}

#[cfg(test)]
mod tests;
