//! Benchmark of the `xmlpruned` HTTP serving layer, in two parts:
//!
//! 1. **Throughput**: a small pool of keep-alive clients pruning
//!    generated auction documents as fast as they can (requests/sec,
//!    p50/p99 latency per query).
//! 2. **Concurrency sweep**: each cell opens N keep-alive connections
//!    (default 100 / 1 000 / 10 000) of which all but a small hot
//!    subset sit idle, then measures the hot subset's request rate for
//!    a fixed window, once per `--reactor-threads` value. Idle
//!    connections are *maintained*: a fleet thread warms each with one
//!    request and re-opens any the server drops, the way a long-lived
//!    client pool would. An idle connection costs the server a slab
//!    slot and an epoll registration, so the hot subset's rate should
//!    not depend on N; the cross-cell checks are that nothing is
//!    aborted at shutdown, no hot request fails, and a second event
//!    loop does not serve less than one.
//!
//! Results stream as JSON lines:
//!
//! ```sh
//! cargo run --release -p xproj-bench --bin server | grep '^{'
//! ```
//!
//! Knobs: `XPROJ_BENCH_SCALE` (XMark scale for part 1, default 0.02),
//! `XPROJ_BENCH_CLIENTS` / `XPROJ_BENCH_REQUESTS` (part 1 pool),
//! `XPROJ_BENCH_SWEEP` (comma list of connection counts, default
//! `100,1000,10000`), `XPROJ_BENCH_HOT` (hot subset size, default 16),
//! `XPROJ_BENCH_CELL_MS` (measurement window per cell, default 5000),
//! `XPROJ_BENCH_REACTORS` (comma list of `--reactor-threads` values the
//! reactor cells re-run at, default `1,2`),
//! `XPROJ_BENCH_SWEEP_SCALE` (XMark scale of the hot-request document;
//! 0, the default, substitutes a ~1 KiB hand-written auction snippet so
//! the cell measures connection handling rather than prune CPU — the
//! XMark generator's smallest output is ~21 KiB, enough for engine
//! time to dominate on small machines), `XPROJ_BENCH_IDLE_BACKOFF_MS`
//! (delay before re-opening a dropped idle connection, default 0 —
//! a pool that wants N warm connections replaces drops immediately).
//!
//! Both socket ends of every connection live in this process, so sweep
//! cells are clamped to `(nofile limit - 512) / 2` connections: a cell
//! within a few fds of the limit measures the server's accept-stall
//! (EMFILE) backoff path, not its serving capacity.

use std::io::Read;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use xproj_server::{Server, ServerConfig};
use xproj_testkit::{urlencode, HttpClient};
use xproj_xmark::{auction_dtd, generate_auction, XMarkConfig};

fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn quantile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Pulls `"key":<digits>` out of the metrics JSON without a parser.
fn json_u64(body: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    body.find(&pat)
        .and_then(|i| {
            let digits: String = body[i + pat.len()..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect();
            digits.parse().ok()
        })
        .unwrap_or(0)
}

/// One maintained idle connection: open + warmed (one served request),
/// re-opened with a small backoff when the server drops it.
struct IdleConn {
    client: Option<HttpClient>,
    retry_at: Instant,
    ever_connected: bool,
}

fn open_idle(addr: SocketAddr) -> std::io::Result<HttpClient> {
    let mut c = HttpClient::connect(addr)?;
    c.set_timeout(Duration::from_secs(2))?;
    let resp = c.request("GET", "/healthz", &[], None)?;
    if resp.status != 200 {
        return Err(std::io::Error::other("warm-up request failed"));
    }
    // Nonblocking from here on: liveness is probed with a zero-budget
    // read (`WouldBlock` = still parked, anything else = recycle).
    c.stream_ref().set_nonblocking(true)?;
    Ok(c)
}

fn probe_alive(c: &HttpClient) -> bool {
    let mut b = [0u8; 64];
    match (&mut c.stream_ref()).read(&mut b) {
        Ok(_) => false, // EOF or an unsolicited byte (a 408)
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => true,
        Err(_) => false,
    }
}

struct CellResult {
    requests: usize,
    errors: usize,
    hot_reconnects: usize,
    latencies: Vec<Duration>,
    wall: Duration,
}

/// Key numbers from a sweep cell, for cross-cell assertions.
struct CellStats {
    rps: f64,
    errors: usize,
    aborted: u64,
}

/// One sweep cell: a fresh server with `reactor_threads` event loops,
/// `idle_target` maintained idle connections, `hot` clients hammering
/// `target` for `cell_ms`.
#[allow(clippy::too_many_arguments)]
fn run_cell(
    reactor_threads: usize,
    conns: usize,
    hot: usize,
    cell_ms: u64,
    workers: usize,
    idle_backoff: Duration,
    dtd_text: &str,
    query: &str,
    xml: &str,
) -> CellStats {
    let idle_target = conns.saturating_sub(hot);
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        reactor_threads,
        // Long enough that no parked connection expires mid-cell.
        read_timeout: Duration::from_secs(60),
        drain_deadline: Duration::from_secs(20),
        ..Default::default()
    };
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr();
    let state = server.state();
    let serve = std::thread::spawn(move || server.serve().expect("serve"));

    // Register the DTD for the hot subset's prune requests.
    let mut admin = HttpClient::connect(addr).expect("connect");
    let resp = admin
        .request("POST", "/v1/dtd?root=site", &[], Some(dtd_text.as_bytes()))
        .expect("register dtd");
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let id = resp
        .body_str()
        .split("\"id\":\"")
        .nth(1)
        .and_then(|s| s.split('"').next())
        .expect("id in registration response")
        .to_string();
    let target = format!("/v1/prune?dtd={id}&query={}", urlencode(query));
    drop(admin);

    let stop = AtomicBool::new(false);
    let alive = AtomicUsize::new(0);
    let idle_reconnects = AtomicUsize::new(0);
    let mut fleet: Vec<IdleConn> = (0..idle_target)
        .map(|_| IdleConn {
            client: None,
            retry_at: Instant::now(),
            ever_connected: false,
        })
        .collect();
    let maintainers = 8usize.min(idle_target.max(1));

    let cell = std::thread::scope(|scope| {
        // Idle-fleet maintainers: connect + warm their share, then keep
        // probing and re-opening what the server drops.
        let chunk = idle_target.div_ceil(maintainers).max(1);
        for shard in fleet.chunks_mut(chunk) {
            let (stop, alive, reconnects) = (&stop, &alive, &idle_reconnects);
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for slot in shard.iter_mut() {
                        if stop.load(Ordering::Relaxed) {
                            return;
                        }
                        match &slot.client {
                            Some(c) if !probe_alive(c) => {
                                slot.client = None;
                                alive.fetch_sub(1, Ordering::Relaxed);
                                slot.retry_at = Instant::now() + idle_backoff;
                            }
                            Some(_) => {}
                            None if Instant::now() >= slot.retry_at => {
                                match open_idle(addr) {
                                    Ok(c) => {
                                        slot.client = Some(c);
                                        alive.fetch_add(1, Ordering::Relaxed);
                                        if slot.ever_connected {
                                            reconnects.fetch_add(1, Ordering::Relaxed);
                                        }
                                        slot.ever_connected = true;
                                    }
                                    Err(_) => {
                                        slot.retry_at = Instant::now() + idle_backoff;
                                    }
                                }
                            }
                            None => {}
                        }
                    }
                    // Scale the probe cadence with fleet size so the
                    // client side doesn't monopolize small machines.
                    std::thread::sleep(Duration::from_millis(
                        5u64.max(idle_target as u64 / 100),
                    ));
                }
            });
        }

        // Setup barrier: wait for the fleet to (mostly) come up, or for
        // its size to plateau.
        let setup_deadline = Instant::now() + Duration::from_secs(60);
        let mut peak = 0usize;
        let mut peak_at = Instant::now();
        loop {
            let a = alive.load(Ordering::Relaxed);
            if a > peak {
                (peak, peak_at) = (a, Instant::now());
            }
            let enough = a * 100 >= idle_target * 95;
            let plateaued = peak_at.elapsed() > Duration::from_secs(5);
            if enough || plateaued || Instant::now() >= setup_deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        let idle_at_start = alive.load(Ordering::Relaxed);

        // Hot phase.
        let results: Mutex<CellResult> = Mutex::new(CellResult {
            requests: 0,
            errors: 0,
            hot_reconnects: 0,
            latencies: Vec::new(),
            wall: Duration::ZERO,
        });
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_millis(cell_ms);
        std::thread::scope(|hot_scope| {
            for _ in 0..hot {
                let (results, target, xml) = (&results, &target, xml);
                hot_scope.spawn(move || {
                    let mut lat = Vec::new();
                    let (mut ok, mut errs, mut reconnects) = (0usize, 0usize, 0usize);
                    let mut client: Option<HttpClient> = None;
                    let mut ever_connected = false;
                    while Instant::now() < deadline {
                        let c = match &mut client {
                            Some(c) => c,
                            None => match HttpClient::connect(addr) {
                                Ok(c) => {
                                    let _ = c.set_timeout(Duration::from_secs(2));
                                    if ever_connected {
                                        reconnects += 1;
                                    }
                                    ever_connected = true;
                                    client.insert(c)
                                }
                                Err(_) => {
                                    errs += 1;
                                    std::thread::sleep(Duration::from_millis(10));
                                    continue;
                                }
                            },
                        };
                        let t = Instant::now();
                        match c.request("POST", target, &[], Some(xml.as_bytes())) {
                            Ok(resp) if resp.status == 200 => {
                                ok += 1;
                                lat.push(t.elapsed());
                            }
                            Ok(_) => {
                                errs += 1;
                                client = None;
                            }
                            Err(_) => {
                                errs += 1;
                                client = None;
                            }
                        }
                    }
                    let mut r = results.lock().unwrap();
                    r.requests += ok;
                    r.errors += errs;
                    r.hot_reconnects += reconnects;
                    r.latencies.extend(lat);
                });
            }
        });
        let wall = t0.elapsed();

        // Metrics snapshot while the fleet is still up.
        let metrics = HttpClient::connect(addr)
            .and_then(|mut c| {
                c.set_timeout(Duration::from_secs(5))?;
                c.request("GET", "/metrics", &[], None)
            })
            .map(|r| r.body_str().to_string())
            .unwrap_or_default();
        let idle_at_end = alive.load(Ordering::Relaxed);

        stop.store(true, Ordering::Relaxed);
        let mut cell = results.into_inner().unwrap();
        cell.wall = wall;
        (cell, idle_at_start, idle_at_end, metrics)
    });
    let (mut cell, idle_at_start, idle_at_end, metrics) = cell;

    // Close the fleet client-side before asking the server to drain.
    drop(fleet);
    state.trigger_shutdown();
    let report = serve.join().expect("serve thread");

    cell.latencies.sort();
    let rps = cell.requests as f64 / cell.wall.as_secs_f64();
    let p99 = quantile(&cell.latencies, 0.99).as_micros();
    println!(
        "{{\"group\":\"server\",\"bench\":\"sweep\",\
         \"reactor_threads\":{reactor_threads},\
         \"conns\":{conns},\
         \"idle_target\":{idle_target},\"idle_at_start\":{idle_at_start},\
         \"idle_at_end\":{idle_at_end},\"idle_reconnects\":{},\
         \"hot\":{hot},\"workers\":{workers},\"duration_ms\":{},\
         \"requests\":{},\"errors\":{},\"hot_reconnects\":{},\
         \"requests_per_sec\":{rps:.2},\"p50_us\":{},\"p99_us\":{p99},\
         \"doc_bytes\":{},\"max_conn_resident\":{},\"registered_fds\":{},\
         \"drained\":{},\"aborted\":{}}}",
        idle_reconnects.load(Ordering::Relaxed),
        cell.wall.as_millis(),
        cell.requests,
        cell.errors,
        cell.hot_reconnects,
        quantile(&cell.latencies, 0.50).as_micros(),
        xml.len(),
        json_u64(&metrics, "max_conn_resident"),
        json_u64(&metrics, "registered_fds"),
        report.drained,
        report.aborted,
    );
    CellStats { rps, errors: cell.errors, aborted: report.aborted }
}

fn main() {
    let scale: f64 = env_or("XPROJ_BENCH_SCALE", 0.02);
    let clients: usize = env_or("XPROJ_BENCH_CLIENTS", 4usize).max(1);
    let requests: usize = env_or("XPROJ_BENCH_REQUESTS", 50usize).max(1);

    let dtd = auction_dtd();
    let dtd_text = dtd.to_dtd_syntax();
    let xml = Arc::new(generate_auction(&dtd, &XMarkConfig::at_scale(scale)).to_xml());
    eprintln!(
        "# server bench: xmark scale {scale}, {:.2} MiB document, \
         {clients} clients x {requests} requests",
        xml.len() as f64 / (1 << 20) as f64
    );

    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: clients.max(2),
        ..Default::default()
    };
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr();
    let state = server.state();
    let serve = std::thread::spawn(move || server.serve().expect("serve"));

    // Register the DTD through the HTTP surface, like a client would.
    let mut c = HttpClient::connect(addr).expect("connect");
    let resp = c
        .request("POST", "/v1/dtd?root=site", &[], Some(dtd_text.as_bytes()))
        .expect("register dtd");
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let body = resp.body_str();
    let id = body
        .split("\"id\":\"")
        .nth(1)
        .and_then(|s| s.split('"').next())
        .expect("id in registration response")
        .to_string();

    for query in [
        "/site/people/person/name",
        "//keyword",
        "/site/closed_auctions/closed_auction/price",
    ] {
        let target = format!("/v1/prune?dtd={id}&query={}", urlencode(query));
        let wall = Instant::now();
        // One keep-alive connection per client thread, hammering the
        // same endpoint; per-request latency collected client-side.
        let per_client: Vec<Vec<Duration>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    scope.spawn(|| {
                        let mut c = HttpClient::connect(addr).expect("connect");
                        c.set_timeout(Duration::from_secs(30)).unwrap();
                        let mut lat = Vec::with_capacity(requests);
                        for _ in 0..requests {
                            let t0 = Instant::now();
                            let resp = c
                                .request("POST", &target, &[], Some(xml.as_bytes()))
                                .expect("prune request");
                            assert_eq!(resp.status, 200, "{}", resp.body_str());
                            lat.push(t0.elapsed());
                        }
                        lat
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        let wall = wall.elapsed();
        let mut lat: Vec<Duration> = per_client.into_iter().flatten().collect();
        lat.sort();
        let total = lat.len();
        let rps = total as f64 / wall.as_secs_f64();
        let label = query.replace('/', "_");
        println!(
            "{{\"group\":\"server\",\"bench\":\"prune{label}\",\"clients\":{clients},\
             \"requests\":{total},\"requests_per_sec\":{rps:.2},\
             \"p50_us\":{},\"p99_us\":{},\"max_us\":{},\
             \"doc_bytes\":{}}}",
            quantile(&lat, 0.50).as_micros(),
            quantile(&lat, 0.99).as_micros(),
            lat.last().copied().unwrap_or_default().as_micros(),
            xml.len(),
        );
    }

    state.trigger_shutdown();
    let report = serve.join().expect("serve thread");
    eprintln!(
        "# shutdown: {} requests served, {} drained, {} aborted",
        report.requests, report.drained, report.aborted
    );
    assert_eq!(report.aborted, 0, "bench load must drain cleanly");

    // ------------------------------------------------------------------
    // Concurrency sweep: a hot subset under a mostly-idle keep-alive
    // fleet, per event-loop count.
    // ------------------------------------------------------------------
    let mut sweep: Vec<usize> = std::env::var("XPROJ_BENCH_SWEEP")
        .unwrap_or_else(|_| "100,1000,10000".to_string())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    let hot: usize = env_or("XPROJ_BENCH_HOT", 16usize).max(1);
    let cell_ms: u64 = env_or("XPROJ_BENCH_CELL_MS", 5000u64).max(100);
    let sweep_scale: f64 = env_or("XPROJ_BENCH_SWEEP_SCALE", 0.0);
    let workers: usize = env_or("XPROJ_BENCH_WORKERS", 4usize).max(1);
    let idle_backoff = Duration::from_millis(env_or("XPROJ_BENCH_IDLE_BACKOFF_MS", 0u64));
    let sweep_xml = if sweep_scale > 0.0 {
        generate_auction(&dtd, &XMarkConfig::at_scale(sweep_scale)).to_xml()
    } else {
        // Small enough that prune CPU is noise next to connection
        // handling: the sweep measures serving, not the engine.
        let mut s = String::from("<site><open_auctions>");
        for i in 0..6 {
            s.push_str(&format!(
                "<open_auction id=\"oa{i}\"><annotation><description><text>\
                 considerable reserves of <keyword>dust</keyword> and \
                 <keyword>echo</keyword> remain</text></description>\
                 </annotation></open_auction>"
            ));
        }
        s.push_str("</open_auctions></site>");
        s
    };
    let query = "//keyword";

    if let Some(&max) = sweep.iter().max() {
        // Both socket ends of every connection live in this process.
        let want = (2 * max + 512) as u64;
        match xproj_reactor::raise_nofile_limit(want) {
            Ok(lim) if lim < want => {
                // Running a cell within a handful of fds of the limit
                // doesn't measure serving — it measures the accept-stall
                // (EMFILE) path. Clamp cells to the budget instead.
                let cap = (lim.saturating_sub(512) / 2) as usize;
                for c in sweep.iter_mut() {
                    if *c > cap.max(1) {
                        eprintln!("# fd limit {lim}: clamping {c}-conn cell to {cap}");
                        *c = cap.max(1);
                    }
                }
                sweep.dedup();
            }
            Ok(_) => {}
            Err(e) => eprintln!("# warning: raise_nofile_limit: {e}"),
        }
    }
    // The reactor-thread axis: each listed count re-runs the cell with
    // that many SO_REUSEPORT-sharded event loops.
    let reactors: Vec<usize> = std::env::var("XPROJ_BENCH_REACTORS")
        .unwrap_or_else(|_| "1,2".to_string())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&n| n >= 1)
        .collect();
    let reactors = if reactors.is_empty() { vec![1] } else { reactors };
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    eprintln!(
        "# sweep: conns {sweep:?}, reactor threads {reactors:?} ({cores} cores), hot {hot}, \
         {workers} workers, {cell_ms} ms cells, {:.1} KiB hot document",
        sweep_xml.len() as f64 / 1024.0
    );
    let mut check_failures: Vec<String> = Vec::new();
    for &conns in &sweep {
        let mut stats: Vec<(usize, CellStats)> = Vec::new();
        for &nloops in &reactors {
            eprintln!("# sweep cell: reactor x{nloops} x {conns} conns");
            let cell = run_cell(
                nloops,
                conns,
                hot,
                cell_ms,
                workers,
                idle_backoff,
                &dtd_text,
                query,
                &sweep_xml,
            );
            stats.push((nloops, cell));
        }

        // Cross-cell checks at this connection count, enforced when
        // XPROJ_BENCH_ASSERT=1 (the CI smoke step): every cell drains
        // with nothing aborted and serves its hot subset without an
        // error, and more loops do not serve less.
        for (nloops, cell) in &stats {
            if cell.aborted != 0 {
                check_failures.push(format!(
                    "{conns} conns: reactor x{nloops} aborted connections at shutdown"
                ));
            }
            if cell.errors != 0 {
                check_failures.push(format!(
                    "{conns} conns: reactor x{nloops} failed {} hot requests",
                    cell.errors
                ));
            }
        }
        // Multi-loop scaling: with real cores to spread over, more
        // loops must not serve less; on a single core the loops only
        // add coordination, so the gate degrades to a no-regression
        // band.
        let (base_loops, one) = stats.iter().min_by_key(|(n, _)| *n).expect("a reactor count");
        for (nloops, many) in stats.iter().filter(|(n, _)| n != base_loops) {
            let ratio = if one.rps > 0.0 { many.rps / one.rps } else { f64::INFINITY };
            eprintln!(
                "# {conns} conns: reactor x{nloops} {:.0} rps vs x{base_loops} {:.0} rps \
                 ({ratio:.2}x, {cores} cores)",
                many.rps, one.rps
            );
            // ">= single-loop" with a 5% measurement-noise allowance;
            // single-core machines cannot scale at all, so they only
            // guard against outright collapse.
            let floor = if cores >= 2 { 0.95 } else { 0.80 };
            if ratio < floor {
                check_failures.push(format!(
                    "{conns} conns: reactor x{nloops} only {ratio:.2}x of x{base_loops} \
                     (floor {floor:.2} at {cores} cores)"
                ));
            }
        }
    }
    if !check_failures.is_empty() {
        for f in &check_failures {
            eprintln!("# sweep check failed: {f}");
        }
        if env_or("XPROJ_BENCH_ASSERT", 0u8) == 1 {
            panic!("sweep checks failed: {check_failures:?}");
        }
    }
}
