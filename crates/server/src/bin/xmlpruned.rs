//! `xmlpruned` — the HTTP projection daemon.
//!
//! ```text
//! xmlpruned [--addr HOST:PORT] [--workers N] [--reactor-threads N]
//!           [--chunk-size BYTES] [--cache N] [--max-body-bytes N]
//!           [--read-timeout-ms N] [--write-timeout-ms N] [--drain-ms N]
//!           [--max-connections N] [--rate-limit RPS:BURST]
//!           [--port-file PATH]
//! ```
//!
//! Binds, prints `listening on HOST:PORT`, and serves until
//! `POST /admin/shutdown` (or SIGTERM via process exit). `--addr` with
//! port 0 picks an ephemeral port; `--port-file` writes the bound port
//! to a file so scripts (CI) can find it.

use std::process::ExitCode;
use std::time::Duration;
use xproj_server::{Server, ServerConfig};

/// Descriptors kept beyond `--max-connections`: listeners, epoll and
/// eventfd per loop, stdio, and sockets accepted only to be refused 503.
const NOFILE_RESERVE: u64 = 256;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("xmlpruned: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7144".to_string(),
        ..Default::default()
    };
    let mut port_file: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = |flag: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let parse_num = |flag: &str, v: &str| -> Result<u64, String> {
            v.parse()
                .map_err(|_| format!("{flag}: '{v}' is not a number"))
        };
        match a.as_str() {
            "--addr" => config.addr = next("--addr")?,
            "--workers" => {
                config.workers = parse_num("--workers", &next("--workers")?)?.max(1) as usize
            }
            "--chunk-size" => {
                config.chunk_size =
                    parse_num("--chunk-size", &next("--chunk-size")?)?.max(1) as usize
            }
            "--cache" => {
                config.cache_capacity = parse_num("--cache", &next("--cache")?)?.max(1) as usize
            }
            "--max-body-bytes" => {
                config.max_body_bytes = parse_num("--max-body-bytes", &next("--max-body-bytes")?)?
            }
            "--read-timeout-ms" => {
                config.read_timeout = Duration::from_millis(parse_num(
                    "--read-timeout-ms",
                    &next("--read-timeout-ms")?,
                )?)
            }
            "--write-timeout-ms" => {
                config.write_timeout = Duration::from_millis(parse_num(
                    "--write-timeout-ms",
                    &next("--write-timeout-ms")?,
                )?)
            }
            "--drain-ms" => {
                config.drain_deadline =
                    Duration::from_millis(parse_num("--drain-ms", &next("--drain-ms")?)?)
            }
            "--reactor-threads" => {
                config.reactor_threads =
                    parse_num("--reactor-threads", &next("--reactor-threads")?)?.max(1) as usize
            }
            "--rate-limit" => {
                let v = next("--rate-limit")?;
                let (rps, burst) = v
                    .split_once(':')
                    .ok_or_else(|| format!("--rate-limit: '{v}' is not RPS:BURST"))?;
                let rps: f64 = rps
                    .parse()
                    .map_err(|_| format!("--rate-limit: '{rps}' is not a number"))?;
                let burst: f64 = burst
                    .parse()
                    .map_err(|_| format!("--rate-limit: '{burst}' is not a number"))?;
                let valid = rps.is_finite() && rps > 0.0 && burst.is_finite() && burst >= 1.0;
                if !valid {
                    return Err(format!(
                        "--rate-limit: need RPS > 0 and BURST >= 1, got '{v}'"
                    ));
                }
                config.rate_limit = Some((rps, burst));
            }
            "--max-connections" => {
                config.max_connections =
                    parse_num("--max-connections", &next("--max-connections")?)?.max(1) as usize
            }
            "--port-file" => port_file = Some(next("--port-file")?),
            "--help" | "-h" => {
                println!("{}", USAGE.trim());
                return Ok(());
            }
            other => return Err(format!("unknown flag '{other}'\n{}", USAGE.trim())),
        }
    }

    // Every admitted connection is a descriptor: without room for
    // --max-connections of them, accept fails (EMFILE, `accept_stalls`)
    // long before admission would answer 503.
    let want = (config.max_connections as u64).saturating_add(NOFILE_RESERVE);
    if let Ok(got) = xproj_reactor::raise_nofile_limit(want) {
        if got < want {
            eprintln!(
                "xmlpruned: fd limit {got} < --max-connections {} + {NOFILE_RESERVE}: \
                 accepts will stall before admission refuses with 503",
                config.max_connections
            );
        }
    }
    let server = Server::bind(config).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    if let Some(path) = &port_file {
        std::fs::write(path, format!("{}", addr.port())).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("listening on {addr}");
    let report = server.serve().map_err(|e| format!("serve: {e}"))?;
    println!(
        "shutdown: {} requests served, {} drained, {} aborted",
        report.requests, report.drained, report.aborted
    );
    if report.aborted > 0 {
        return Err(format!(
            "{} requests aborted at the drain deadline",
            report.aborted
        ));
    }
    Ok(())
}

const USAGE: &str = r#"
usage: xmlpruned [--addr HOST:PORT] [--workers N] [--reactor-threads N]
                 [--chunk-size BYTES] [--cache N] [--max-body-bytes N]
                 [--read-timeout-ms N] [--write-timeout-ms N] [--drain-ms N]
                 [--max-connections N] [--rate-limit RPS:BURST]
                 [--port-file PATH]

Serves type-based XML projection over HTTP/1.1:
  POST /v1/dtd?root=NAME        register a DTD (body = DTD text) -> {"id":...}
  POST /v1/prune?dtd=ID&query=Q prune the request body (chunked bodies stream)
  POST /v1/query?dtd=ID&query=Q prune AND answer in one pass (x-ndjson frames)
                                on both, fast_forward=0 disables subtree skipping
  POST /v1/analyze?dtd=ID&query=Q      the `xmlprune analyze` report as x-ndjson
                                (repeat query=; a body calibrates retention)
  POST /v1/independence?dtd=ID&query=Q&update=U
                                one static verdict per (query, update) pair
  GET  /metrics                 JSON (or ?format=prometheus) live metrics
  GET  /healthz                 liveness
  POST /admin/shutdown          graceful shutdown (drain, then exit)

Compiled (DTD, query) artifacts live in an in-memory LRU (--cache N
entries) and are never written to disk: after a restart, register the DTD
again and the first request per pair recompiles (tens of microseconds).

--addr with port 0 picks an ephemeral port (printed on stdout and, with
--port-file, written to PATH). --chunk-size is the per-connection buffer
unit (default 65536): the engine is fed one unit at a time, a response
streams once it outgrows one unit, reads pause at two units of backlog
and, against a client that is not reading, at four units of unsent
response — so a connection's memory is a small multiple of this number
plus document depth, whatever the document's size. --max-body-bytes
bounds a decoded request body (over it: 413).

Every connection is one protocol state machine; on Linux epoll event
loops drive them (elsewhere: one blocking thread per connection).
--reactor-threads spawns N loops, each with its own epoll instance, timer
wheel, executor lane and SO_REUSEPORT listener (default: available cores,
capped at 8); the kernel shards accepts across them. A loop feeds the
engine itself, at most two buffer units a job: it is the daemon's
parallelism. --workers threads, split across the loops' lanes, take only
the work nothing bounds (query compiles, DTDs, analyses, fallback-plan
evaluation), so a slow one never delays a cached prune or query.
--max-connections bounds admission (over it: 503 + Retry-After); the soft
fd limit is raised to fit it, as far as the hard limit allows.
--read-timeout-ms bounds an idle keep-alive wait, a whole request head
(absolute, from its first byte) and a stalled body; --write-timeout-ms
bounds a client that stops reading its response; --drain-ms bounds how
long shutdown waits for requests in flight. --rate-limit RPS:BURST arms a
per-connection token bucket (over it: 429 + Retry-After, connection
closed).
"#;
