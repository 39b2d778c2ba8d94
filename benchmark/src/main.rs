//! `xproj-ledger` — the repo's one performance ledger.
//!
//! Drives a real `xmlpruned` child process over loopback with four
//! closed-loop workloads, checks every answer against the in-process
//! engine, and prints every metric by name with its unit. `--trace`
//! swaps the end-to-end numbers for the per-layer ones. See
//! `benchmark/README.md`; run through `benchmark/run.sh`.

#![forbid(unsafe_code)]

mod daemon;
mod http;
mod ladder;
mod loadgen;
mod metrics;
mod reference;
mod stats;
mod workloads;

use daemon::{metric, peak_rss_mib, Daemon, ProcUsage};
use http::{request_head, Body, Client};
use loadgen::{Clients, Stop, Trace, Window};
use metrics::{unit_of, Rows, END_TO_END, PER_LAYER};
use reference::{Reference, NOMINAL_NS};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::{prepare, workload, Prepared, Workload, WORKLOADS};
use xproj_dtd::Dtd;
use xproj_testkit::{parse_json, Json};
use xproj_xmark::{auction_dtd, AUCTION_DTD};

const DEFAULT_SEED: u64 = 42;
/// 2 s on every workload: the slowest one (`large_prune_stream`, 70–90
/// requests a second) passes 100 requests in well under that, so
/// `setup_s` does not depend on the request rate.
const WARMUP: Stop = Stop {
    duration: Duration::from_secs(2),
    min_requests: 100,
};

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    daemon: PathBuf,
    out: PathBuf,
}

const USAGE: &str = "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
[--repeat N] [--list] [--print-pins]";

/// Everything a run needs that is not per workload.
struct Ctx {
    args: Args,
    dtd: Arc<Dtd>,
    /// CPU the daemon is pinned to, when pinning.
    daemon_cpu: Option<usize>,
    /// CPUs this process may run on, counted before pinning.
    nproc: usize,
    clients: usize,
    pins: Option<Json>,
}

fn cpus_allowed() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or("")
        .trim()
        .to_string();
    let mut cpus = Vec::new();
    for part in list.split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// With two or more CPUs and `taskset`, the daemon gets the first CPU to
/// itself and this process (and so every client thread it spawns later)
/// the rest. Returns the daemon's CPU when that worked.
fn pin(cpus: &[usize]) -> Option<usize> {
    let (&daemon_cpu, rest) = cpus.split_first().filter(|(_, rest)| !rest.is_empty())?;
    let rest: Vec<String> = rest.iter().map(usize::to_string).collect();
    let ok = Command::new("taskset")
        .args(["-cp", &rest.join(","), &std::process::id().to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success());
    ok.then_some(daemon_cpu)
}

fn first_line_value(path: &str, key: &str) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .map(|l| l.to_string())
        })
        .and_then(|l| l.split_once(':').map(|(_, v)| v.trim().to_string()))
        .unwrap_or_else(|| "unknown".to_string())
}

/// `nproc`, CPU model, kernel, pinning — as JSON members.
fn machine_json(ctx: &Ctx) -> String {
    format!(
        "\"nproc\":{},\"cpu_model\":\"{}\",\"kernel\":\"{}\",\"pinned\":{},\"clients\":{}",
        ctx.nproc,
        first_line_value("/proc/cpuinfo", "model name").replace(['"', '\\'], ""),
        std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .unwrap_or_default()
            .trim(),
        ctx.daemon_cpu.is_some(),
        ctx.clients,
    )
}

/// Load average, CPU pressure and stolen CPU time right now: the noise
/// floor's context. Pressure read after a run includes the run's own
/// (the daemon's threads share one CPU); the reading before it and the
/// growth of `cpu_steal_s` are the neighbours' alone.
fn noise_json() -> String {
    let loadavg = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let pressure = std::fs::read_to_string("/proc/pressure/cpu").unwrap_or_default();
    let some_avg10 = pressure
        .split_whitespace()
        .find_map(|f| f.strip_prefix("avg10="))
        .unwrap_or("0")
        .to_string();
    // Field 8 of the `cpu` line, in USER_HZ ticks of 10 ms.
    let steal_ticks: f64 = std::fs::read_to_string("/proc/stat")
        .unwrap_or_default()
        .split_whitespace()
        .nth(8)
        .and_then(|f| f.parse().ok())
        .unwrap_or(0.0);
    format!(
        "{{\"loadavg_1m\":{},\"cpu_pressure_some_avg10\":{},\"cpu_steal_s\":{}}}",
        loadavg.split_whitespace().next().unwrap_or("0"),
        some_avg10,
        steal_ticks / 100.0
    )
}

/// A daemon with the workload's inputs registered and its caches warm.
struct Live {
    daemon: Daemon,
    prepared: Prepared,
    clients: Clients,
}

fn check_pins(ctx: &Ctx, prepared: &Prepared) -> Result<(), String> {
    let pins = ctx
        .pins
        .as_ref()
        .and_then(|j| j.get("pins"))
        .ok_or("benchmark/expected.json has no pins")?;
    for (key, hash) in &prepared.pins {
        let want = pins.get(key).and_then(Json::as_str).unwrap_or("missing");
        if want != format!("{hash:016x}") {
            return Err(format!(
                "inputs drifted: {key} is {hash:016x}, expected.json pins {want} \
                 (crates/xmark or the engine changed the bytes; see benchmark/README.md)"
            ));
        }
    }
    Ok(())
}

/// Spawn, healthz, generate, register, reference outputs, warm-up — all
/// of it charged to `setup_s`.
fn set_up(ctx: &Ctx, w: &'static Workload) -> Result<(Live, f64), String> {
    let t0 = Instant::now();
    let daemon = Daemon::spawn(&ctx.args.daemon, &ctx.args.out, ctx.daemon_cpu)?;
    let mut prepared = prepare(&ctx.dtd, w, ctx.args.seed)?;
    check_pins(ctx, &prepared)?;
    let id = daemon.register_dtd(AUCTION_DTD)?;
    prepared.bind(&id);
    let mut clients = Clients::connect(daemon.addr, ctx.clients);
    let warm = clients.run(&prepared, WARMUP, None);
    if warm.failed > 0 {
        return Err(format!(
            "{}: warm-up failed: {}",
            w.name,
            warm.first_error.unwrap_or_default()
        ));
    }
    Ok((
        Live {
            daemon,
            prepared,
            clients,
        },
        t0.elapsed().as_secs_f64(),
    ))
}

/// What one run of one workload reports.
#[derive(Default)]
struct Report {
    rows: Rows,
    attempted: u64,
    failed: u64,
    /// Why the run is not correct, if it is not.
    problems: Vec<String>,
    notes: Vec<String>,
}

fn window_problems(w: &Workload, window: &Window, problems: &mut Vec<String>) {
    if window.failed > 0 || window.verified() == 0 {
        problems.push(format!(
            "{}: {} of {} requests failed: {}",
            w.name,
            window.failed,
            window.attempted,
            window
                .first_error
                .clone()
                .unwrap_or_else(|| "no request completed".to_string())
        ));
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// The timed window is cut into this many consecutive slices of traffic,
/// each between two readings of the machine-speed reference. A run
/// reports the median slice: a cost paid on every request, or a stall
/// that recurs within a slice's length, is in every slice and so in the
/// median; a spell in which the host slows the box down for less than
/// half the window is not.
const SLICES: usize = 10;

/// One reading of the reference takes this share of `--seconds`
/// (0.25 s of a 30 s run); the slices share what the readings leave.
const REFERENCE_SHARE: f64 = 1.0 / 120.0;

/// The end-to-end run: one set-up, then the sliced timed window with
/// tracing off. Every timing is corrected, slice by slice, to the
/// reference's nominal speed before the median is taken.
fn timed_run(ctx: &Ctx, w: &'static Workload) -> Result<Report, String> {
    let (
        Live {
            daemon,
            prepared,
            mut clients,
        },
        setup_s,
    ) = set_up(ctx, w)?;
    let pid = daemon.pid();
    let mut reference = Reference::start(ctx.daemon_cpu).map_err(|e| format!("reference: {e}"))?;
    let reading = Duration::from_secs_f64(ctx.args.seconds * REFERENCE_SHARE);
    let mut read_reference = || {
        reference
            .round_trip_ns(reading)
            .map_err(|e| format!("reference: {e}"))
    };
    let stop = Stop {
        duration: Duration::from_secs_f64(ctx.args.seconds / SLICES as f64) - reading,
        min_requests: 0,
    };

    let mut report = Report::default();
    let (mut rate, mut p50, mut tail, mut cpu_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut speeds, mut pooled, mut elapsed_s, mut cpu_ns) = (Vec::new(), Vec::new(), 0.0, 0);
    let mut before = read_reference()?;
    for _ in 0..SLICES {
        let cpu0 = ProcUsage::read(pid);
        let mut window = clients.run(&prepared, stop, None);
        let cpu = ProcUsage::read(pid).since(cpu0);
        let after = read_reference()?;
        // Below 1 while the box is slower than nominal.
        let speed = NOMINAL_NS / ((before + after) / 2.0);
        before = after;

        report.attempted += window.attempted;
        report.failed += window.failed;
        window_problems(w, &window, &mut report.problems);
        let latencies = &mut window.latencies_ns;
        if latencies.is_empty() {
            return Err(format!("{}: no request completed in a slice", w.name));
        }
        latencies.sort_unstable();
        let (median, p99) = (
            stats::percentile(latencies, 50.0),
            stats::percentile(latencies, 99.0),
        );
        rate.push(latencies.len() as f64 / window.elapsed.as_secs_f64() / speed);
        p50.push(us(median) * speed);
        tail.push(p99 as f64 / median as f64);
        cpu_us.push(us(cpu.cpu_ns) / latencies.len() as f64 * speed);
        speeds.push(speed);
        elapsed_s += window.elapsed.as_secs_f64();
        cpu_ns += cpu.cpu_ns;
        pooled.append(latencies);
    }
    let rss = peak_rss_mib(pid);
    drop(clients);
    daemon.shutdown()?;

    pooled.sort_unstable();
    let verified = pooled.len();
    report.notes.push(format!(
        "{}: {verified} latency samples in {SLICES} slices of {:.3} s ({} in a slice)",
        w.name,
        elapsed_s / SLICES as f64,
        match stats::supported_tail(verified / SLICES) {
            Some(p) if p >= 99.0 => "p99 has >= 10 samples beyond it".to_string(),
            Some(p) => format!("p99 has fewer than 10 samples beyond it, p{p} has"),
            None => "too few for any tail percentile".to_string(),
        }
    ));
    report.notes.push(format!(
        "{}: uncorrected, whole window: {:.2} req/s, p50 {:.1} us, p99 {:.1} us, {:.2} us daemon CPU per request; \
         speed {:.3} of nominal (median slice)",
        w.name,
        verified as f64 / elapsed_s,
        us(stats::percentile(&pooled, 50.0)),
        us(stats::percentile(&pooled, 99.0)),
        us(cpu_ns) / verified as f64,
        stats::median(&speeds),
    ));
    let rows = &mut report.rows;
    rows.push("req_per_s", stats::median(&rate));
    rows.push("latency_p50_us", stats::median(&p50));
    rows.push("latency_p99_per_p50", stats::median(&tail));
    rows.push("server_cpu_us_per_req", stats::median(&cpu_us));
    rows.push("server_peak_rss_mib", rss);
    rows.push("bytes_out_per_byte_in", prepared.bytes_out_per_byte_in());
    rows.push(
        "verified_share",
        verified as f64 / report.attempted.max(1) as f64,
    );
    rows.push("setup_s", setup_s);
    Ok(report)
}

/// `GET /healthz` p50 on one keep-alive connection: head parse, reactor
/// and response, with no executor and no engine behind it.
fn healthz_rtt_us(daemon: &Daemon) -> Result<f64, String> {
    let mut c = Client::connect(daemon.addr).map_err(|e| format!("healthz connect: {e}"))?;
    let head = request_head("GET", "/healthz", Body::None);
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 500 || start.elapsed() < Duration::from_millis(250) {
        let t = c
            .exchange(&head, Body::None, false)
            .map_err(|e| format!("healthz: {e}"))?;
        if c.response().status != 200 {
            return Err(format!("healthz: status {}", c.response().status));
        }
        samples.push((t.done - t.start).as_nanos() as u64);
    }
    samples.sort_unstable();
    Ok(us(stats::percentile(&samples, 50.0)))
}

/// Untraced and traced slices alternate, so that drift during the run
/// falls on both sides of `trace.overhead_share` alike.
const TRACE_SLICES: usize = 4;

/// Sums of one kind of slice.
#[derive(Default)]
struct Slices {
    verified: u64,
    elapsed_s: f64,
}

impl Slices {
    fn add(&mut self, w: &Window) {
        self.verified += w.verified();
        self.elapsed_s += w.elapsed.as_secs_f64();
    }

    fn req_per_s(&self) -> f64 {
        self.verified as f64 / self.elapsed_s
    }
}

/// The traced run: one set-up, then untraced and traced windows of a
/// quarter of `--seconds` each (interleaved in slices) with the daemon's
/// counters scraped around them, then the in-process ladder.
fn traced_run(
    ctx: &Ctx,
    w: &'static Workload,
    global: &Rows,
    probe: Duration,
    trace: &mut Trace,
) -> Result<Report, String> {
    let (
        Live {
            daemon,
            prepared,
            mut clients,
        },
        _,
    ) = set_up(ctx, w)?;
    let slice = Duration::from_secs_f64((ctx.args.seconds / 4.0).max(1.0) / TRACE_SLICES as f64);
    let stop = Stop {
        duration: slice,
        min_requests: 0,
    };
    let mut report = Report::default();

    let (m0, server0) = (daemon.metrics()?, ProcUsage::read(daemon.pid()));
    let (mut untraced, mut traced) = (Slices::default(), Slices::default());
    let (mut client_cpu_ns, mut client_runq_ns, mut samples) = (0, 0, 0);
    for i in 0..2 * TRACE_SLICES {
        let tracing = i % 2 == 1;
        let window = clients.run(&prepared, stop, tracing.then_some(&mut *trace));
        if tracing { &mut traced } else { &mut untraced }.add(&window);
        report.attempted += window.attempted;
        report.failed += window.failed;
        client_cpu_ns += window.client_cpu_ns;
        client_runq_ns += window.client_runq_ns;
        samples += window.verified();
        window_problems(w, &window, &mut report.problems);
    }
    let (server, m1) = (
        ProcUsage::read(daemon.pid()).since(server0),
        daemon.metrics()?,
    );
    let healthz = healthz_rtt_us(&daemon)?;
    drop(clients);
    daemon.shutdown()?;
    report.notes.push(format!(
        "{}: {samples} requests in the traced run's windows",
        w.name
    ));

    let delta = |path: &str| metric(&m1, path) - metric(&m0, path);
    // The scrape itself is one request on its own endpoint; the
    // workload's endpoint counts only the workload.
    let endpoint = format!("endpoints.{}", w.endpoint.label());
    let served = delta(&format!("{endpoint}.count")).max(1.0);
    let verified = (untraced.verified + traced.verified).max(1) as f64;
    let window_ns = (untraced.elapsed_s + traced.elapsed_s) * 1e9;
    let lookups = delta("cache.hits") + delta("cache.misses");
    let hit_ratio = delta("cache.hits") / lookups.max(1.0);
    let cpu_us_per_req = us(server.cpu_ns) / verified;
    let cell_us = ladder::cell_us_per_req(&ctx.dtd, &prepared, probe);
    ladder::cell_spans(&ctx.dtd, &prepared, trace);

    let rows = &mut report.rows;
    rows.0.extend(global.0.iter().cloned());
    rows.push("qc.hit_ratio", hit_ratio);
    rows.push(
        "qc.compile_us_served",
        delta("cache.compile_micros") / delta("cache.compiles").max(1.0),
    );
    rows.push("engine.cell_us_per_req", cell_us);
    rows.push("reactor.polls_per_req", delta("reactor.polls") / served);
    rows.push("reactor.wakes_per_req", delta("reactor.wakes") / served);
    rows.push(
        "server.executor_jobs_per_req",
        delta("reactor.executor_jobs") / served,
    );
    rows.push("server.healthz_rtt_us", healthz);
    // The daemon's own log2-bucket quantiles: cumulative since its
    // start, i.e. over warm-up and every window of the same traffic.
    rows.push(
        "server.endpoint_p50_us",
        metric(&m1, &format!("{endpoint}.p50_us")),
    );
    rows.push(
        "server.endpoint_p99_us",
        metric(&m1, &format!("{endpoint}.p99_us")),
    );
    rows.push(
        "server.endpoint_mean_us",
        delta(&format!("{endpoint}.sum_ms")) * 1e3 / served,
    );
    rows.push("server.ctxsw_per_req", server.ctxsw as f64 / verified);
    rows.push("server.busy_share", server.cpu_ns as f64 / window_ns);
    rows.push("server.cpu_us_per_req", cpu_us_per_req);
    rows.push("server.tax_ratio", cpu_us_per_req / cell_us);
    rows.push("loadgen.cpu_us_per_req", us(client_cpu_ns) / verified);
    rows.push(
        "loadgen.lateness",
        client_runq_ns as f64 / (window_ns * ctx.clients as f64),
    );
    rows.push("trace.req_per_s", traced.req_per_s());
    rows.push("trace.untraced_req_per_s", untraced.req_per_s());
    rows.push(
        "trace.overhead_share",
        1.0 - traced.req_per_s() / untraced.req_per_s(),
    );

    // Each workload must exercise, or bypass, the cache as designed.
    if w.hot && hit_ratio < 0.99 {
        report.problems.push(format!(
            "{}: cache hit ratio {hit_ratio:.4} < 0.99 on a hot workload",
            w.name
        ));
    }
    if !w.hot && hit_ratio > 0.01 {
        report.problems.push(format!(
            "{}: cache hit ratio {hit_ratio:.4} > 0.01 on the cold workload",
            w.name
        ));
    }
    Ok(report)
}

fn write_trace(path: &Path, ctx: &Ctx, runs: &[(&'static str, Trace)]) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        out,
        "{{\"machine\":{{{}}},\"seed\":{},\"runs\":[",
        machine_json(ctx),
        ctx.args.seed
    )?;
    for (i, (name, trace)) in runs.iter().enumerate() {
        write!(
            out,
            "{}{{\"workload\":\"{name}\",\"spans\":[",
            if i > 0 { "," } else { "" }
        )?;
        for (j, span) in trace.spans.iter().enumerate() {
            let parent = if span.parent == loadgen::NO_PARENT {
                "null".to_string()
            } else {
                span.parent.to_string()
            };
            write!(
                out,
                "{}\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request_id\":{}}}",
                if j > 0 { "," } else { "" },
                span.name,
                span.start_ns,
                span.end_ns,
                span.request_id
            )?;
        }
        out.write_all(b"]}")?;
    }
    out.write_all(b"]}\n")?;
    out.flush()
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
fn result_line(report: &Report, names: &[&str]) -> String {
    let mut s = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        report.problems.is_empty(),
        report.attempted.max(1),
        report.failed
    );
    for (i, name) in names.iter().enumerate() {
        let value = report.rows.get(name).unwrap_or(f64::NAN);
        let _ = write!(
            s,
            "{}\"{name}\":{{\"value\":{},\"unit\":\"{}\"}}",
            if i > 0 { "," } else { "" },
            json_number(value),
            unit_of(name)
        );
    }
    s.push_str("}}");
    s
}

impl Report {
    /// A declared metric without a finite value makes the run incorrect.
    fn require(mut self, w: &Workload, names: &[&str]) -> Report {
        for name in names {
            if !self.rows.get(name).is_some_and(f64::is_finite) {
                self.problems
                    .push(format!("{}: no value for {name}", w.name));
            }
        }
        self
    }
}

/// Prints every metric as `name value unit`.
fn print_report(w: &Workload, report: &Report, names: &[&str]) {
    println!("## workload {}", w.name);
    for name in names {
        println!(
            "{name} {} {}",
            json_number(report.rows.get(name).unwrap_or(f64::NAN)),
            unit_of(name)
        );
    }
    for note in &report.notes {
        println!("# {note}");
    }
    for problem in &report.problems {
        println!("# FAILED {problem}");
    }
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        repeat: 1,
        daemon: PathBuf::new(),
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse()
                .map_err(|_| format!("{flag}: '{v}' is not a number"))
        }
        match a.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                args.workload =
                    Some(workload(&name).ok_or_else(|| format!("unknown workload '{name}'"))?);
            }
            "--seed" => args.seed = num("--seed", value("--seed")?)?,
            "--seconds" => args.seconds = num("--seconds", value("--seconds")?)?,
            "--repeat" => args.repeat = num("--repeat", value("--repeat")?)?,
            "--daemon" => args.daemon = PathBuf::from(value("--daemon")?),
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => {
                args.trace = it
                    .next_if(|v| v == "0" || v == "1")
                    .is_none_or(|v| v == "1")
            }
            "--list" => {
                for w in &WORKLOADS {
                    println!("workload {} {}", w.name, w.why);
                }
                for (name, unit, better, bound) in END_TO_END {
                    println!("end_to_end {name} {unit} {better} {bound}");
                }
                for (name, unit, better) in PER_LAYER {
                    println!("per_layer {name} {unit} {better}");
                }
                return Ok(None);
            }
            "--print-pins" => {
                let dtd = Arc::new(auction_dtd());
                let mut pins = Vec::new();
                for w in &WORKLOADS {
                    pins.extend(prepare(&dtd, w, DEFAULT_SEED)?.pins);
                }
                let body: Vec<String> = pins
                    .iter()
                    .map(|(k, h)| format!("    \"{k}\": \"{h:016x}\""))
                    .collect();
                println!(
                    "{{\n  \"xmark_seed\": {},\n  \"pins\": {{\n{}\n  }}\n}}",
                    workloads::XMARK_SEED,
                    body.join(",\n")
                );
                return Ok(None);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) || args.repeat == 0 {
        return Err(format!("--seconds and --repeat must be positive\n{USAGE}"));
    }
    if !args.daemon.is_file() {
        return Err(format!(
            "--daemon: no xmlpruned binary at '{}' (use benchmark/run.sh)",
            args.daemon.display()
        ));
    }
    Ok(Some(args))
}

/// `--repeat N`: per-metric median, `(max − min) ÷ median` and
/// inter-quartile range ÷ median next to the bound, and the medians of
/// the first and the second half of the runs against each other
/// (`--repeat 10`: two sets of five). Printed and written to
/// `out/repeat.json`. A cell whose inter-quartile range or whose
/// difference between the halves exceeds its bound is unresolved: the set
/// cannot tell a regression of that size from the box's noise. Returns
/// whether every cell resolved.
fn report_spread(
    ctx: &Ctx,
    runs: &[(&'static Workload, Vec<Report>)],
    noise_before: &str,
) -> Result<bool, String> {
    let mut json = format!(
        "{{\n  \"machine\": {{{}}},\n  \"seed\": {},\n  \"seconds\": {},\n  \"runs\": {},\n  \
         \"noise_before\": {noise_before},\n  \"noise_after\": {},\n  \"workloads\": {{",
        machine_json(ctx),
        ctx.args.seed,
        ctx.args.seconds,
        ctx.args.repeat,
        noise_json()
    );
    let mut unresolved = 0;
    for (i, (w, reports)) in runs.iter().enumerate() {
        println!("## spread {} over {} runs", w.name, reports.len());
        let _ = write!(
            json,
            "{}\n    \"{}\": {{",
            if i > 0 { "," } else { "" },
            w.name
        );
        for (j, (name, unit, _, bound)) in END_TO_END.iter().enumerate() {
            let values: Vec<f64> = reports.iter().filter_map(|r| r.rows.get(name)).collect();
            let (median, spread) = (stats::median(&values), stats::spread(&values));
            let iqr = stats::iqr_share(&values);
            let (first, second) = values.split_at(values.len() / 2);
            let (first, second) = (stats::median(first), stats::median(second));
            let halves_differ = (second - first).abs() / first.abs();
            let resolved = iqr <= *bound && halves_differ <= *bound;
            unresolved += usize::from(!resolved);
            println!(
                "{name} median {median} {unit} spread {spread:.4} iqr {iqr:.4} \
                 halves {first} {second} differ {halves_differ:.4} bound {bound}{}",
                if resolved { "" } else { " UNRESOLVED" }
            );
            let listed: Vec<String> = values.iter().map(|&v| json_number(v)).collect();
            let _ = write!(
                json,
                "{}\n      \"{name}\": {{\"unit\": \"{unit}\", \"median\": {}, \"spread\": {}, \"iqr\": {}, \
                 \"first_half_median\": {}, \"second_half_median\": {}, \"halves_differ\": {}, \
                 \"bound\": {bound}, \"resolved\": {resolved}, \"values\": [{}]}}",
                if j > 0 { "," } else { "" },
                json_number(median),
                json_number(spread),
                json_number(iqr),
                json_number(first),
                json_number(second),
                json_number(halves_differ),
                listed.join(", ")
            );
        }
        json.push_str("\n    }");
    }
    let _ = write!(json, "\n  }},\n  \"unresolved_cells\": {unresolved}\n}}\n");
    let path = ctx.args.out.join("repeat.json");
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# wrote {}", path.display());
    if unresolved > 0 {
        println!(
            "# set rejected: {unresolved} cells unresolved (inter-quartile range or difference \
             between the halves above the bound); not a baseline"
        );
    }
    Ok(unresolved == 0)
}

fn run(args: Args) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let cpus = cpus_allowed();
    let ctx = Ctx {
        dtd: Arc::new(auction_dtd()),
        daemon_cpu: pin(&cpus),
        nproc: cpus.len(),
        clients: cpus.len().clamp(1, 2),
        pins: std::fs::read_to_string("benchmark/expected.json")
            .ok()
            .and_then(|s| parse_json(&s).ok()),
        args,
    };
    let noise_before = noise_json();
    println!("# machine {{{}}}", machine_json(&ctx));
    println!("# noise before {noise_before}");

    let selected: Vec<&'static Workload> = match ctx.args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let mut all_correct = true;
    let mut last = None;
    if ctx.args.trace {
        let names: Vec<&str> = PER_LAYER.iter().map(|&(n, ..)| n).collect();
        // Driver runs share `--seconds` between the windows and the
        // ladder; a stand-alone traced run gives every probe 2 s.
        let rungs = names.len() as f64;
        let probe = Duration::from_secs_f64(if ctx.args.workload.is_some() {
            ctx.args.seconds / 2.0 / rungs
        } else {
            2.0
        });
        // The document-independent rungs run on the large and the mid body.
        let big = workloads::document(&ctx.dtd, workload("large_prune_stream").expect("defined"));
        let onepass = prepare(
            &ctx.dtd,
            workload("mid_query_onepass").expect("defined"),
            ctx.args.seed,
        )?;
        let global = ladder::global_rows(&ctx.dtd, &big, &onepass, probe);
        let mut traces = Vec::new();
        for &w in &selected {
            let mut trace = Trace::new();
            let report = traced_run(&ctx, w, &global, probe, &mut trace)?.require(w, &names);
            print_report(w, &report, &names);
            all_correct &= report.problems.is_empty();
            traces.push((w.name, trace));
            last = Some((report, names.clone()));
        }
        let path = ctx.args.out.join("trace.json");
        write_trace(&path, &ctx, &traces).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# wrote {}", path.display());
    } else {
        let names: Vec<&str> = END_TO_END.iter().map(|&(n, ..)| n).collect();
        let mut runs: Vec<(&'static Workload, Vec<Report>)> =
            selected.iter().map(|&w| (w, Vec::new())).collect();
        for _ in 0..ctx.args.repeat {
            for (w, reports) in &mut runs {
                let report = timed_run(&ctx, w)?.require(w, &names);
                print_report(w, &report, &names);
                all_correct &= report.problems.is_empty();
                reports.push(report);
            }
        }
        if ctx.args.repeat > 1 {
            all_correct &= report_spread(&ctx, &runs, &noise_before)?;
        }
        last = runs
            .pop()
            .and_then(|(_, mut reports)| reports.pop())
            .map(|r| (r, names));
    }
    println!("# noise after {}", noise_json());
    // The driver reads the last line; it asks for one workload at a time.
    if let (Some(_), Some((report, names))) = (ctx.args.workload, last) {
        println!("{}", result_line(&report, &names));
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| args.map_or(Ok(true), run)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("xproj-ledger: {e}");
            ExitCode::from(2)
        }
    }
}
