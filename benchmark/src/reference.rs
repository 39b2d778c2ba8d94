//! The machine-speed reference: a fixed loopback ping-pong that shares no
//! code with the repo.
//!
//! On a shared host the same request costs 20–30 % more on-CPU time in
//! some minutes than in others (README, "Noise floor"), and every timing
//! of every workload moves with it. The timed run therefore measures this
//! reference around each slice of traffic and reports its timings at the
//! reference's nominal speed. The peer is a thread that only reads a
//! request-sized message and writes a response-sized one, on the daemon's
//! CPU when pinning, so a round trip pays what a request pays outside the
//! daemon's own code: two socket writes, two reads, two cross-CPU wake-ups.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::process::{Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The small workloads' body and response sizes.
const REQUEST: usize = 1160;
const REPLY: usize = 938;

/// The round trip on the box the benchmark was written on, in a quiet
/// spell. Timings are reported as if the reference always took this long.
pub const NOMINAL_NS: f64 = 45_000.0;

pub struct Reference {
    conn: TcpStream,
    peer: Option<JoinHandle<()>>,
    samples: Vec<u64>,
}

/// Moves the calling thread to `cpu` (best effort, like the daemon's pin).
fn pin_this_thread(cpu: usize) {
    let Some(tid) = std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| Some(p.file_name()?.to_str()?.to_string()))
    else {
        return;
    };
    let _ = Command::new("taskset")
        .args(["-cp", &cpu.to_string(), &tid])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status();
}

fn serve(listener: TcpListener, cpu: Option<usize>) {
    if let Some(cpu) = cpu {
        pin_this_thread(cpu);
    }
    let Ok((mut conn, _)) = listener.accept() else {
        return;
    };
    let _ = conn.set_nodelay(true);
    let (mut request, reply) = ([0u8; REQUEST], [b'r'; REPLY]);
    // Ends when the other side shuts the connection down.
    while conn.read_exact(&mut request).is_ok() && conn.write_all(&reply).is_ok() {}
}

impl Reference {
    pub fn start(cpu: Option<usize>) -> io::Result<Reference> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let peer = std::thread::spawn(move || serve(listener, cpu));
        let conn = TcpStream::connect(addr)?;
        conn.set_nodelay(true)?;
        Ok(Reference {
            conn,
            peer: Some(peer),
            samples: Vec::new(),
        })
    }

    /// Median round trip over `duration` of back-to-back ping-pong, in ns.
    pub fn round_trip_ns(&mut self, duration: Duration) -> io::Result<f64> {
        let (request, mut reply) = ([b'q'; REQUEST], [0u8; REPLY]);
        self.samples.clear();
        let start = Instant::now();
        let mut now = start;
        while self.samples.is_empty() || now - start < duration {
            self.conn.write_all(&request)?;
            self.conn.read_exact(&mut reply)?;
            let done = Instant::now();
            self.samples.push((done - now).as_nanos() as u64);
            now = done;
        }
        self.samples.sort_unstable();
        Ok(crate::stats::percentile(&self.samples, 50.0) as f64)
    }
}

impl Drop for Reference {
    fn drop(&mut self) {
        let _ = self.conn.shutdown(Shutdown::Both);
        if let Some(peer) = self.peer.take() {
            let _ = peer.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_pong_reads_a_round_trip_and_stops_its_peer() {
        let mut reference = Reference::start(None).expect("start");
        let ns = reference
            .round_trip_ns(Duration::from_millis(20))
            .expect("round trips");
        assert!(ns > 0.0);
        assert!(reference.samples.len() > 1);
        // Joins the peer thread: hangs here if shutdown does not reach it.
        drop(reference);
    }
}
