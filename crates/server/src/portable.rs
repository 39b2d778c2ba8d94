//! The portable driver: one blocking thread per connection, `std` only.
//!
//! The same [`Connection`] machine the epoll driver runs, driven the
//! simplest way that is correct everywhere: a blocking read whose
//! timeout is the machine's deadline, a blocking write of its frame
//! queue, and [`run_job`] inline on the connection's own thread —
//! placement has nothing to decide where every connection is its own
//! thread, so the machine's `bounded()` goes unasked. It is the serving
//! path on targets without epoll and carries no protocol
//! of its own — limits, deadlines, backpressure, admission and drain
//! all come from the machine and [`crate::admit`].

use crate::conn::{run_job, Connection, Input, READ_BUDGET};
use crate::state::ServerState;
use crate::{admit, classify_accept_error, AcceptFailure, ShutdownReport, ACCEPT_STALL_BACKOFF};
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The longest a connection thread blocks before it looks at the
/// shutdown flags again.
const POLL_INTERVAL: Duration = Duration::from_millis(50);
/// The shortest socket timeout (zero would mean "block forever").
const MIN_WAIT: Duration = Duration::from_millis(1);

/// Accepts until shutdown, one scoped thread per connection; then
/// drains: the threads finish their requests, and whatever is still in
/// flight at the drain deadline is aborted.
pub(crate) fn serve(
    listener: TcpListener,
    state: &Arc<ServerState>,
) -> std::io::Result<ShutdownReport> {
    // A throwaway connection to ourselves unblocks the blocking accept.
    let addr = state.local_addr();
    state.set_wake_hook(Box::new(move || drop(TcpStream::connect(addr))));
    let state: &ServerState = state;
    let live = AtomicUsize::new(0);
    let aborted = std::thread::scope(|scope| {
        let mut draining = false;
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    let (conn, admitted) = admit(state, Instant::now());
                    live.fetch_add(1, Ordering::SeqCst);
                    let live = &live;
                    scope.spawn(move || {
                        run_connection(stream, conn, state);
                        if admitted {
                            state.open_conns.fetch_sub(1, Ordering::Relaxed);
                        }
                        live.fetch_sub(1, Ordering::SeqCst);
                    });
                }
                Err(e) => match classify_accept_error(&e, state) {
                    AcceptFailure::Drained => break,
                    AcceptFailure::Transient => {}
                    AcceptFailure::Stalled if draining => break,
                    AcceptFailure::Stalled => std::thread::sleep(ACCEPT_STALL_BACKOFF),
                },
            }
            // Shutdown began: a connection already in the backlog may
            // have its request on the wire, so empty the backlog before
            // closing the listener instead of resetting it.
            if state.is_shutting_down() && !draining {
                draining = true;
                if listener.set_nonblocking(true).is_err() {
                    break;
                }
            }
        }
        drop(listener);
        let deadline = Instant::now() + state.config.drain_deadline;
        while live.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Past the deadline: the threads see the flag within one poll
        // interval and reset their connections, so the scope's joins
        // stay bounded.
        let aborted = state.metrics.in_flight.load(Ordering::Relaxed) as u64;
        state.metrics.aborted.fetch_add(aborted, Ordering::Relaxed);
        state.hard_abort();
        aborted
    });
    Ok(ShutdownReport::new(state, aborted))
}

/// Serves one connection to its end on the calling thread.
fn run_connection(mut stream: TcpStream, mut conn: Connection, state: &ServerState) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_nonblocking(false);
    let mut buf = vec![0u8; READ_BUDGET];
    let mut told_shutdown = false;
    let mut write_shut = false;
    // Feeds one input, then runs the jobs the machine asks for inline.
    let feed = |conn: &mut Connection, input: Input<'_>| {
        let mut job = conn.handle(input, Instant::now(), state);
        while let Some(j) = job {
            job = conn.handle(Input::Done(run_job(j, state)), Instant::now(), state);
        }
    };
    while let Some(deadline) = conn.deadline() {
        let now = Instant::now();
        let wait = deadline
            .saturating_duration_since(now)
            .clamp(MIN_WAIT, POLL_INTERVAL);
        if state.is_hard_aborting() {
            feed(&mut conn, Input::Reset);
        } else if state.is_shutting_down() && !told_shutdown {
            told_shutdown = true;
            // "In flight" is judged from the client's side: a request
            // already in the socket buffer was sent before shutdown, so
            // an idle-looking connection gets one read first.
            if conn.is_idle() {
                let _ = stream.set_read_timeout(Some(MIN_WAIT));
                if let Ok(n @ 1..) = stream.read(&mut buf) {
                    feed(&mut conn, Input::Bytes(&buf[..n]));
                }
            }
            feed(&mut conn, Input::ShuttingDown);
        } else if now >= deadline {
            feed(&mut conn, Input::DeadlineReached);
        } else if conn.pending_out() > 0 {
            let duplex = conn.wants_read();
            let _ = stream.set_write_timeout(Some(if duplex { MIN_WAIT } else { wait }));
            let res = {
                let mut iov = [IoSlice::new(&[]); 16];
                let n = conn.gather(&mut iov);
                stream.write_vectored(&iov[..n])
            };
            match res {
                Ok(0) => feed(&mut conn, Input::Reset),
                Ok(n) => feed(&mut conn, Input::Written(n)),
                Err(e) if !timed_out(&e) => feed(&mut conn, Input::Reset),
                // The client sends before it reads: take its bytes
                // rather than wedge both sides in `write`.
                Err(_) if duplex => read_once(&mut stream, &mut buf, MIN_WAIT, &mut conn, &feed),
                Err(_) => {}
            }
        } else if conn.wants_read() {
            if conn.half_closed() && !write_shut {
                write_shut = true;
                let _ = stream.shutdown(Shutdown::Write);
            }
            read_once(&mut stream, &mut buf, wait, &mut conn, &feed);
        } else {
            // Nothing to move either way: only the deadline can act.
            std::thread::sleep(wait);
        }
    }
}

/// One blocking read of at most `wait`, fed to the machine.
fn read_once(
    stream: &mut TcpStream,
    buf: &mut [u8],
    wait: Duration,
    conn: &mut Connection,
    feed: &impl Fn(&mut Connection, Input<'_>),
) {
    let _ = stream.set_read_timeout(Some(wait));
    match stream.read(buf) {
        Ok(0) => feed(conn, Input::Eof),
        Ok(n) => feed(conn, Input::Bytes(&buf[..n])),
        Err(e) if timed_out(&e) => {}
        Err(_) => feed(conn, Input::Reset),
    }
}

/// A socket timeout (or a signal) is not an event; any other failure
/// resets the connection.
fn timed_out(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
    )
}
