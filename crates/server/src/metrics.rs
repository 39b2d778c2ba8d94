//! Live server metrics: request/connection counters, the aggregated
//! engine statistics of every document served (`/v1/prune` and
//! `/v1/query` alike), and per-endpoint latency histograms — rendered as
//! JSON (the workspace's native format) or Prometheus text exposition,
//! both from the one table `ServerMetrics::table` declares.
//!
//! Counters are lock-free atomics; the only lock is around the
//! aggregated [`EngineStats`], taken once per completed document.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use xproj_engine::{ArtifactCacheStats, EngineStats};
use xproj_reactor::ReactorMetrics;

/// The endpoints tracked individually (everything else is `other`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `GET /healthz`
    Healthz,
    /// `GET /metrics`
    Metrics,
    /// `POST /v1/dtd`
    Dtd,
    /// `POST /v1/prune`
    Prune,
    /// `POST /v1/query`
    Query,
    /// `POST /v1/analyze`
    Analyze,
    /// `POST /v1/independence`
    Independence,
    /// `POST /admin/shutdown`
    Shutdown,
    /// Anything unrouted.
    Other,
}

impl Endpoint {
    /// Stable label used in metrics output.
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::Dtd => "dtd",
            Endpoint::Prune => "prune",
            Endpoint::Query => "query",
            Endpoint::Analyze => "analyze",
            Endpoint::Independence => "independence",
            Endpoint::Shutdown => "shutdown",
            Endpoint::Other => "other",
        }
    }

    const ALL: [Endpoint; 9] = [
        Endpoint::Healthz,
        Endpoint::Metrics,
        Endpoint::Dtd,
        Endpoint::Prune,
        Endpoint::Query,
        Endpoint::Analyze,
        Endpoint::Independence,
        Endpoint::Shutdown,
        Endpoint::Other,
    ];

    fn index(self) -> usize {
        match self {
            Endpoint::Healthz => 0,
            Endpoint::Metrics => 1,
            Endpoint::Dtd => 2,
            Endpoint::Prune => 3,
            Endpoint::Query => 4,
            Endpoint::Analyze => 5,
            Endpoint::Independence => 6,
            Endpoint::Shutdown => 7,
            Endpoint::Other => 8,
        }
    }
}

const BUCKETS: usize = 32;

/// A lock-free log₂-bucketed latency histogram: bucket *i* counts
/// requests whose latency fell in `[2^i, 2^(i+1))` microseconds.
/// Quantiles are answered with the upper edge of the bucket holding the
/// requested rank — an at-most-2× overestimate, which is the right bias
/// for an alerting-facing p99.
#[derive(Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl LatencyHistogram {
    /// Records one observation.
    pub fn record(&self, d: Duration) {
        // Sub-microsecond completions (cache-hit /healthz on loopback)
        // truncate to `us == 0`, where the log₂ index `63 -
        // leading_zeros` would underflow — they belong in bucket 0.
        let us = d.as_micros() as u64;
        let bucket = if us == 0 {
            0
        } else {
            (63 - us.leading_zeros() as usize).min(BUCKETS - 1)
        };
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
        self.max_ns
            .fetch_max(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> Duration {
        Duration::from_nanos(self.sum_ns.load(Ordering::Relaxed))
    }

    /// Largest single observation.
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_ns.load(Ordering::Relaxed))
    }

    /// The upper bucket edge at quantile `q` in `[0, 1]`; zero when
    /// nothing was recorded.
    pub fn quantile(&self, q: f64) -> Duration {
        let count = self.count();
        if count == 0 {
            return Duration::ZERO;
        }
        let rank = ((count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Duration::from_micros(1u64 << (i + 1));
            }
        }
        self.max()
    }
}

/// All live metrics of one server instance.
pub struct ServerMetrics {
    started: Instant,
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Requests fully parsed and routed.
    pub requests: AtomicU64,
    /// Requests answered with a 4xx/5xx (or dropped on protocol error).
    pub errors: AtomicU64,
    /// Requests currently being processed.
    pub in_flight: AtomicUsize,
    /// Requests completed after shutdown was requested.
    pub drained: AtomicU64,
    /// Requests still in flight when the drain deadline expired.
    pub aborted: AtomicU64,
    /// Connections refused at admission (`503` + `Retry-After`) because
    /// `max_connections` was reached.
    pub admission_rejects: AtomicU64,
    /// Requests refused by the per-connection token-bucket rate limiter
    /// (`429` + `Retry-After`, with `--rate-limit`).
    pub rate_limited: AtomicU64,
    /// Accept attempts that failed on a persistent error (fd
    /// exhaustion, typically) and paused the listener for a backoff
    /// instead of spinning on a level-triggered readiness storm.
    pub accept_stalls: AtomicU64,
    /// CPU jobs handed to the executor lane (epoll driver): the work
    /// nothing bounds — DTDs, analyses, and compiles and fallback
    /// evaluations that overran their loop budget — and the overflow of
    /// a turn's loop-job budget.
    pub executor_jobs: AtomicU64,
    /// CPU jobs currently queued or running on the executor lane.
    pub executor_queue_depth: AtomicUsize,
    /// Bounded CPU jobs (feeds, finishes, compiles) run on an event
    /// loop, where they were produced (epoll driver).
    pub loop_jobs: AtomicU64,
    /// Steps fallback evaluations spent (`xproj_xquery::Steps`),
    /// overruns included.
    pub eval_steps: AtomicU64,
    /// Fallback evaluations that overran the loop's step budget and
    /// took the executor lane.
    pub lane_evals: AtomicU64,
    /// High-water mark of one connection's application-level residency
    /// (input + output buffers + the engine session), in bytes — see
    /// [`crate::conn::Connection::resident_bytes`]. The backpressure
    /// design bounds this by O(chunk size + document depth)
    /// regardless of document size or client behavior.
    pub max_conn_resident: AtomicU64,
    /// Every event loop's own counters, installed once by the epoll
    /// driver (one entry per reactor thread); empty under the portable
    /// driver.
    /// `/metrics` sums them at scrape time so the exported keys stay
    /// identical whether one loop runs or eight do.
    reactors: Mutex<Vec<Arc<ReactorMetrics>>>,
    engine: Mutex<EngineStats>,
    latency: [LatencyHistogram; 9],
}

/// Scrape-time sum of every reactor loop's counters.
pub struct ReactorSnapshot {
    /// Reactor event loops running.
    pub loops: usize,
    /// Currently registered fds across all loops.
    pub registered: usize,
    /// Readiness events delivered by epoll.
    pub ready_events: u64,
    /// `epoll_wait` calls that returned.
    pub polls: u64,
    /// eventfd waker interrupts observed.
    pub wakes: u64,
    /// Timer-wheel deadlines fired.
    pub timer_fires: u64,
}

impl ServerMetrics {
    /// Fresh zeroed metrics; the uptime clock starts now.
    pub fn new() -> Self {
        ServerMetrics {
            started: Instant::now(),
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            in_flight: AtomicUsize::new(0),
            drained: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
            admission_rejects: AtomicU64::new(0),
            rate_limited: AtomicU64::new(0),
            accept_stalls: AtomicU64::new(0),
            executor_jobs: AtomicU64::new(0),
            executor_queue_depth: AtomicUsize::new(0),
            loop_jobs: AtomicU64::new(0),
            eval_steps: AtomicU64::new(0),
            lane_evals: AtomicU64::new(0),
            max_conn_resident: AtomicU64::new(0),
            reactors: Mutex::new(Vec::new()),
            engine: Mutex::new(EngineStats::default()),
            latency: Default::default(),
        }
    }

    /// Links every event loop's counters into `/metrics` (the epoll
    /// driver calls this once at startup, one entry per loop).
    pub fn set_reactors(&self, metrics: Vec<Arc<ReactorMetrics>>) {
        *self.reactors.lock().unwrap() = metrics;
    }

    /// Sums the per-loop reactor counters, if this server runs the
    /// reactor. Each loop owns its counters without contention; the sum
    /// happens here, once per scrape.
    pub fn reactor_snapshot(&self) -> Option<ReactorSnapshot> {
        let reactors = self.reactors.lock().unwrap();
        if reactors.is_empty() {
            return None;
        }
        let mut snap = ReactorSnapshot {
            loops: reactors.len(),
            registered: 0,
            ready_events: 0,
            polls: 0,
            wakes: 0,
            timer_fires: 0,
        };
        for r in reactors.iter() {
            snap.registered += r.registered.load(Ordering::Relaxed);
            snap.ready_events += r.ready_events.load(Ordering::Relaxed);
            snap.polls += r.polls.load(Ordering::Relaxed);
            snap.wakes += r.wakes.load(Ordering::Relaxed);
            snap.timer_fires += r.timer_fires.load(Ordering::Relaxed);
        }
        Some(snap)
    }

    /// Folds one completed pass (a prune or a query) into the aggregate.
    pub fn record_engine(&self, stats: &EngineStats) {
        self.engine.lock().unwrap().accumulate(stats);
    }

    /// Snapshot of the aggregated engine stats.
    pub fn engine_snapshot(&self) -> EngineStats {
        self.engine.lock().unwrap().clone()
    }

    /// Records one request's latency under its endpoint.
    pub fn record_latency(&self, endpoint: Endpoint, d: Duration) {
        self.latency[endpoint.index()].record(d);
    }

    /// The histogram of one endpoint.
    pub fn latency(&self, endpoint: Endpoint) -> &LatencyHistogram {
        &self.latency[endpoint.index()]
    }

    /// Every scalar metric, declared once: its JSON section and key, its
    /// Prometheus name, help text and type, and its value right now.
    /// Rows are in JSON document order; the `reactor` section exists
    /// only under the epoll driver. Per-endpoint latencies are the one
    /// thing not here (they are labelled summaries, not scalars).
    fn table(&self, cache: ArtifactCacheStats) -> Vec<Metric> {
        use Kind::{Counter, Gauge};
        let engine = self.engine_snapshot();
        let n = |a: &AtomicU64| Value::Int(a.load(Ordering::Relaxed));
        let z = |a: &AtomicUsize| Value::Int(a.load(Ordering::Relaxed) as u64);
        let int = |v: usize| Value::Int(v as u64);
        let mut rows = vec![
            Metric(
                "server",
                "uptime_ms",
                "xmlpruned_uptime_ms",
                "Milliseconds since the server started.",
                Gauge,
                Value::Int(self.started.elapsed().as_millis() as u64),
            ),
            Metric(
                "server",
                "connections",
                "xmlpruned_connections_total",
                "Connections accepted.",
                Counter,
                n(&self.connections),
            ),
            Metric(
                "server",
                "requests",
                "xmlpruned_requests_total",
                "Requests parsed and routed.",
                Counter,
                n(&self.requests),
            ),
            Metric(
                "server",
                "errors",
                "xmlpruned_errors_total",
                "Requests answered 4xx/5xx or dropped.",
                Counter,
                n(&self.errors),
            ),
            Metric(
                "server",
                "in_flight",
                "xmlpruned_in_flight",
                "Requests currently being processed.",
                Gauge,
                z(&self.in_flight),
            ),
            Metric(
                "server",
                "drained",
                "xmlpruned_drained_total",
                "Requests completed after shutdown was requested.",
                Counter,
                n(&self.drained),
            ),
            Metric(
                "server",
                "aborted",
                "xmlpruned_aborted_total",
                "Requests still in flight when the drain deadline expired.",
                Counter,
                n(&self.aborted),
            ),
            Metric(
                "server",
                "rate_limited",
                "xmlpruned_rate_limited_total",
                "Requests refused 429 by the token-bucket rate limiter.",
                Counter,
                n(&self.rate_limited),
            ),
            Metric(
                "server",
                "accept_stalls",
                "xmlpruned_accept_stalls_total",
                "Accept errors (fd exhaustion) that paused the listener.",
                Counter,
                n(&self.accept_stalls),
            ),
            Metric(
                "engine",
                "documents",
                "xmlpruned_engine_documents_total",
                "Documents passed through the engine (pruned or queried).",
                Counter,
                Value::Int(engine.documents),
            ),
            Metric(
                "engine",
                "events",
                "xmlpruned_engine_events_total",
                "Parse events processed.",
                Counter,
                Value::Int(engine.events),
            ),
            Metric(
                "engine",
                "bytes_in",
                "xmlpruned_engine_bytes_in_total",
                "Document bytes received.",
                Counter,
                Value::Int(engine.bytes_in),
            ),
            Metric(
                "engine",
                "bytes_out",
                "xmlpruned_engine_bytes_out_total",
                "Pruned or answer bytes written back.",
                Counter,
                Value::Int(engine.bytes_out),
            ),
            Metric(
                "engine",
                "retention",
                "xmlpruned_engine_retention",
                "Bytes out per byte in, over all documents.",
                Gauge,
                Value::Ratio(engine.retention()),
            ),
            Metric(
                "engine",
                "elements_kept",
                "xmlpruned_engine_elements_kept_total",
                "Elements written by pruning passes.",
                Counter,
                int(engine.counters.elements_kept),
            ),
            Metric(
                "engine",
                "elements_pruned",
                "xmlpruned_engine_elements_pruned_total",
                "Elements discarded (with their subtrees) by pruning passes.",
                Counter,
                int(engine.counters.elements_pruned),
            ),
            Metric(
                "engine",
                "text_kept",
                "xmlpruned_engine_text_kept_total",
                "Text nodes written by pruning passes.",
                Counter,
                int(engine.counters.text_kept),
            ),
            Metric(
                "engine",
                "text_pruned",
                "xmlpruned_engine_text_pruned_total",
                "Text nodes discarded by pruning passes.",
                Counter,
                int(engine.counters.text_pruned),
            ),
            Metric(
                "engine",
                "max_depth",
                "xmlpruned_engine_max_depth",
                "Deepest element nesting seen in any document.",
                Gauge,
                int(engine.counters.max_depth),
            ),
            Metric(
                "engine",
                "peak_resident_bytes",
                "xmlpruned_engine_peak_resident_bytes",
                "High-water engine-resident buffering of any document.",
                Gauge,
                int(engine.peak_resident_bytes),
            ),
            Metric(
                "engine",
                "max_token_bytes",
                "xmlpruned_engine_max_token_bytes",
                "Largest single token seen in any document.",
                Gauge,
                int(engine.max_token_bytes),
            ),
        ];
        if let Some(r) = self.reactor_snapshot() {
            rows.extend([
                Metric(
                    "reactor",
                    "reactor_threads",
                    "xmlpruned_reactor_threads",
                    "Reactor event loops running.",
                    Gauge,
                    int(r.loops),
                ),
                Metric(
                    "reactor",
                    "registered_fds",
                    "xmlpruned_reactor_registered_fds",
                    "Currently registered fds (all loops).",
                    Gauge,
                    int(r.registered),
                ),
                Metric(
                    "reactor",
                    "ready_events",
                    "xmlpruned_reactor_ready_events_total",
                    "Readiness events delivered by epoll (all loops).",
                    Counter,
                    Value::Int(r.ready_events),
                ),
                Metric(
                    "reactor",
                    "polls",
                    "xmlpruned_reactor_polls_total",
                    "epoll_wait calls that returned (all loops).",
                    Counter,
                    Value::Int(r.polls),
                ),
                Metric(
                    "reactor",
                    "wakes",
                    "xmlpruned_reactor_wakes_total",
                    "eventfd waker interrupts observed (all loops).",
                    Counter,
                    Value::Int(r.wakes),
                ),
                Metric(
                    "reactor",
                    "timer_fires",
                    "xmlpruned_reactor_timer_fires_total",
                    "Timer-wheel deadlines fired (all loops).",
                    Counter,
                    Value::Int(r.timer_fires),
                ),
                Metric(
                    "reactor",
                    "executor_jobs",
                    "xmlpruned_executor_jobs_total",
                    "CPU jobs handed to the executor lane.",
                    Counter,
                    n(&self.executor_jobs),
                ),
                Metric(
                    "reactor",
                    "executor_queue_depth",
                    "xmlpruned_executor_queue_depth",
                    "CPU jobs queued or running on the executor lane.",
                    Gauge,
                    z(&self.executor_queue_depth),
                ),
                Metric(
                    "reactor",
                    "loop_jobs",
                    "xmlpruned_loop_jobs_total",
                    "Bounded CPU jobs run on an event loop.",
                    Counter,
                    n(&self.loop_jobs),
                ),
                Metric(
                    "reactor",
                    "admission_rejects",
                    "xmlpruned_admission_rejects_total",
                    "Connections refused 503 at the admission limit.",
                    Counter,
                    n(&self.admission_rejects),
                ),
                Metric(
                    "reactor",
                    "max_conn_resident",
                    "xmlpruned_max_conn_resident_bytes",
                    "High-water per-connection residency.",
                    Gauge,
                    n(&self.max_conn_resident),
                ),
            ]);
        }
        rows.extend([
            Metric(
                "cache",
                "hits",
                "xmlpruned_cache_hits_total",
                "Artifact cache hits.",
                Counter,
                Value::Int(cache.hits),
            ),
            Metric(
                "cache",
                "misses",
                "xmlpruned_cache_misses_total",
                "Artifact cache misses.",
                Counter,
                Value::Int(cache.misses),
            ),
            Metric(
                "cache",
                "evictions",
                "xmlpruned_cache_evictions_total",
                "Artifact cache evictions.",
                Counter,
                Value::Int(cache.evictions),
            ),
            Metric(
                "cache",
                "compiles",
                "xmlpruned_cache_compiles_total",
                "Query artifacts compiled (inference + lowering).",
                Counter,
                Value::Int(cache.compiles),
            ),
            Metric(
                "cache",
                "compile_micros",
                "xmlpruned_cache_compile_micros_total",
                "Wall-clock microseconds spent compiling artifacts.",
                Counter,
                Value::Int(cache.compile_micros),
            ),
            Metric(
                "cache",
                "compile_steps",
                "xmlpruned_cache_compile_steps_total",
                "Analysis steps spent compiling artifacts, overruns included.",
                Counter,
                Value::Int(cache.compile_steps),
            ),
            Metric(
                "cache",
                "lane_compiles",
                "xmlpruned_cache_lane_compiles_total",
                "Compiles that overran the event-loop step budget.",
                Counter,
                Value::Int(cache.lane_compiles),
            ),
            Metric(
                "cache",
                "eval_steps",
                "xmlpruned_eval_steps_total",
                "Fallback evaluation steps spent, overruns included.",
                Counter,
                n(&self.eval_steps),
            ),
            Metric(
                "cache",
                "lane_evals",
                "xmlpruned_lane_evals_total",
                "Fallback evaluations that overran the event-loop step budget.",
                Counter,
                n(&self.lane_evals),
            ),
            Metric(
                "cache",
                "entries",
                "xmlpruned_cache_entries",
                "Artifacts currently resident.",
                Gauge,
                int(cache.entries),
            ),
            Metric(
                "cache",
                "resident_bytes",
                "xmlpruned_cache_resident_bytes",
                "Approximate bytes held by resident artifacts.",
                Gauge,
                int(cache.resident_bytes),
            ),
            Metric(
                "cache",
                "hit_rate",
                "xmlpruned_cache_hit_rate",
                "Hits per lookup since start.",
                Gauge,
                Value::Ratio(cache.hit_rate()),
            ),
        ]);
        rows
    }

    /// The endpoints that served at least one request, with their
    /// histograms.
    fn served(&self) -> impl Iterator<Item = (&'static str, &LatencyHistogram)> {
        Endpoint::ALL
            .into_iter()
            .map(|ep| (ep.label(), self.latency(ep)))
            .filter(|(_, h)| h.count() > 0)
    }

    /// The full metrics document as one JSON object: one object per
    /// table section, then `endpoints`. `cache` is the live
    /// artifact-cache counters.
    pub fn render_json(&self, cache: ArtifactCacheStats) -> String {
        let mut out = String::with_capacity(1536);
        let mut section = "";
        for Metric(sec, key, _, _, _, value) in self.table(cache) {
            if sec == section {
                out.push(',');
            } else {
                out.push_str(if section.is_empty() { "{" } else { "}," });
                let _ = write!(out, "\"{sec}\":{{");
                section = sec;
            }
            let _ = match value {
                Value::Int(v) => write!(out, "\"{key}\":{v}"),
                Value::Ratio(v) => write!(out, "\"{key}\":{v:.4}"),
            };
        }
        out.push_str("},\"endpoints\":{");
        for (i, (label, h)) in self.served().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{label}\":{{\"count\":{},\"p50_us\":{},\"p99_us\":{},\"max_us\":{},\"sum_ms\":{}}}",
                h.count(),
                h.quantile(0.5).as_micros(),
                h.quantile(0.99).as_micros(),
                h.max().as_micros(),
                h.sum().as_millis(),
            );
        }
        out.push_str("}}");
        out
    }

    /// The same metrics in the Prometheus text exposition format: every
    /// table row as a counter or gauge, then per-endpoint latency
    /// summaries.
    pub fn render_prometheus(&self, cache: ArtifactCacheStats) -> String {
        let mut out = String::with_capacity(4096);
        for Metric(_, _, name, help, kind, value) in self.table(cache) {
            let kind = match kind {
                Kind::Counter => "counter",
                Kind::Gauge => "gauge",
            };
            let _ = write!(out, "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} ");
            let _ = match value {
                Value::Int(v) => writeln!(out, "{v}"),
                Value::Ratio(v) => writeln!(out, "{v}"),
            };
        }
        out.push_str(
            "# HELP xmlpruned_request_duration_seconds Request latency by endpoint.\n\
             # TYPE xmlpruned_request_duration_seconds summary\n",
        );
        for (label, h) in self.served() {
            for (q, d) in [(0.5, h.quantile(0.5)), (0.99, h.quantile(0.99))] {
                let _ = writeln!(
                    out,
                    "xmlpruned_request_duration_seconds{{endpoint=\"{label}\",quantile=\"{q}\"}} {}",
                    d.as_secs_f64()
                );
            }
            let _ = write!(
                out,
                "xmlpruned_request_duration_seconds_sum{{endpoint=\"{label}\"}} {}\n\
                 xmlpruned_request_duration_seconds_count{{endpoint=\"{label}\"}} {}\n",
                h.sum().as_secs_f64(),
                h.count()
            );
        }
        out
    }
}

/// Whether a metric only ever grows.
#[derive(Clone, Copy)]
enum Kind {
    Counter,
    Gauge,
}

/// A metric's value; ratios print to four decimals in JSON.
#[derive(Clone, Copy)]
enum Value {
    Int(u64),
    Ratio(f64),
}

/// One row of [`ServerMetrics::table`]: JSON section, JSON key,
/// Prometheus name, help text, type, value.
struct Metric(
    &'static str,
    &'static str,
    &'static str,
    &'static str,
    Kind,
    Value,
);

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let h = LatencyHistogram::default();
        for _ in 0..90 {
            h.record(Duration::from_micros(100));
        }
        for _ in 0..10 {
            h.record(Duration::from_micros(5000));
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.5);
        assert!(p50 >= Duration::from_micros(100) && p50 <= Duration::from_micros(256));
        let p99 = h.quantile(0.99);
        assert!(p99 >= Duration::from_micros(5000) && p99 <= Duration::from_micros(16384));
        assert_eq!(h.max(), Duration::from_micros(5000));
    }

    #[test]
    fn sub_microsecond_sample_lands_in_bucket_zero() {
        // `Duration::as_micros()` truncates a 300 ns completion to 0;
        // the bucket index must not underflow (debug builds would panic
        // on `63 - 64`), and the sample must still be counted.
        let h = LatencyHistogram::default();
        h.record(Duration::from_nanos(300));
        h.record(Duration::ZERO);
        assert_eq!(h.count(), 2);
        let p99 = h.quantile(0.99);
        assert!(
            p99 > Duration::ZERO && p99 <= Duration::from_micros(2),
            "{p99:?}"
        );
        assert_eq!(h.max(), Duration::from_nanos(300));
    }

    #[test]
    fn quantiles_stay_monotone_with_sub_microsecond_samples() {
        let m = ServerMetrics::new();
        // A mixture spanning bucket 0 through the millisecond range.
        for d in [
            Duration::from_nanos(300),
            Duration::ZERO,
            Duration::from_micros(3),
            Duration::from_micros(90),
            Duration::from_micros(90),
            Duration::from_millis(2),
        ] {
            m.record_latency(Endpoint::Healthz, d);
        }
        let h = m.latency(Endpoint::Healthz);
        assert!(
            h.quantile(0.5) <= h.quantile(0.99),
            "p50 must not exceed p99"
        );
        // The Prometheus summary renders both quantiles; parse them back
        // and check the exposition itself is monotone and non-negative.
        let prom = m.render_prometheus(ArtifactCacheStats::default());
        let q = |needle: &str| -> f64 {
            let line = prom
                .lines()
                .find(|l| l.contains(needle))
                .unwrap_or_else(|| panic!("missing {needle}"));
            line.rsplit(' ').next().unwrap().parse().unwrap()
        };
        let p50 = q("endpoint=\"healthz\",quantile=\"0.5\"");
        let p99 = q("endpoint=\"healthz\",quantile=\"0.99\"");
        assert!(p50 >= 0.0 && p99 >= 0.0);
        assert!(p50 <= p99, "prometheus summary not monotone: {p50} > {p99}");
    }

    #[test]
    fn reactor_counters_sum_across_loops() {
        let m = ServerMetrics::new();
        assert!(m.reactor_snapshot().is_none());
        let a = Arc::new(ReactorMetrics::default());
        let b = Arc::new(ReactorMetrics::default());
        a.polls.fetch_add(5, Ordering::Relaxed);
        b.polls.fetch_add(7, Ordering::Relaxed);
        a.registered.fetch_add(2, Ordering::Relaxed);
        b.registered.fetch_add(3, Ordering::Relaxed);
        m.set_reactors(vec![a, b]);
        let snap = m.reactor_snapshot().unwrap();
        assert_eq!(snap.loops, 2);
        assert_eq!(snap.polls, 12);
        assert_eq!(snap.registered, 5);
        let json = m.render_json(ArtifactCacheStats::default());
        assert!(json.contains("\"reactor_threads\":2"), "{json}");
        assert!(json.contains("\"polls\":12"), "{json}");
    }

    /// The JSON document is scraped by the benchmark ledger: its
    /// sections, keys and their order are pinned here. And the one table
    /// feeds both renderers, so every JSON key has a Prometheus series
    /// carrying the same value. (`reactor.loop_jobs` joined when
    /// unit-bounded jobs left the executor lane: `executor_jobs` alone
    /// no longer says how much engine work a daemon did.)
    #[test]
    fn one_table_renders_the_pinned_json_keys_and_a_series_per_key() {
        use xproj_testkit::{parse_json, Json};
        let m = ServerMetrics::new();
        m.set_reactors(vec![Arc::new(ReactorMetrics::default())]);
        m.drained.fetch_add(7, Ordering::Relaxed);
        m.record_engine(&EngineStats {
            documents: 1,
            events: 41,
            bytes_in: 100,
            bytes_out: 25,
            ..Default::default()
        });
        let cache = ArtifactCacheStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        let Json::Obj(sections) = parse_json(&m.render_json(cache)).unwrap() else {
            panic!("metrics JSON is not an object");
        };
        let keys: Vec<(String, Vec<String>)> = sections
            .iter()
            .map(|(name, v)| {
                let Json::Obj(fields) = v else {
                    panic!("{name} is not an object")
                };
                (
                    name.clone(),
                    fields.iter().map(|(k, _)| k.clone()).collect(),
                )
            })
            .collect();
        let pinned: [(&str, &[&str]); 5] = [
            (
                "server",
                &[
                    "uptime_ms",
                    "connections",
                    "requests",
                    "errors",
                    "in_flight",
                    "drained",
                    "aborted",
                    "rate_limited",
                    "accept_stalls",
                ],
            ),
            (
                "engine",
                &[
                    "documents",
                    "events",
                    "bytes_in",
                    "bytes_out",
                    "retention",
                    "elements_kept",
                    "elements_pruned",
                    "text_kept",
                    "text_pruned",
                    "max_depth",
                    "peak_resident_bytes",
                    "max_token_bytes",
                ],
            ),
            (
                "reactor",
                &[
                    "reactor_threads",
                    "registered_fds",
                    "ready_events",
                    "polls",
                    "wakes",
                    "timer_fires",
                    "executor_jobs",
                    "executor_queue_depth",
                    "loop_jobs",
                    "admission_rejects",
                    "max_conn_resident",
                ],
            ),
            (
                "cache",
                &[
                    "hits",
                    "misses",
                    "evictions",
                    "compiles",
                    "compile_micros",
                    "compile_steps",
                    "lane_compiles",
                    "eval_steps",
                    "lane_evals",
                    "entries",
                    "resident_bytes",
                    "hit_rate",
                ],
            ),
            ("endpoints", &[]),
        ];
        assert_eq!(keys.len(), pinned.len());
        for ((name, fields), (want_name, want_fields)) in keys.iter().zip(pinned) {
            assert_eq!(name, want_name);
            assert_eq!(fields, want_fields, "section {name}");
        }

        let prom = m.render_prometheus(cache);
        let table = m.table(cache);
        assert_eq!(table.len(), 9 + 12 + 11 + 12);
        let mut names: Vec<&str> = table.iter().map(|r| r.2).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            table.len(),
            "a Prometheus name is declared twice"
        );
        for Metric(section, key, name, ..) in &table {
            assert_eq!(
                prom.matches(&format!("# TYPE {name} ")).count(),
                1,
                "{section}.{key} has no series {name}"
            );
        }
        for line in [
            "xmlpruned_drained_total 7",
            "xmlpruned_engine_events_total 41",
            "xmlpruned_engine_retention 0.25",
            "xmlpruned_cache_hit_rate 0.75",
            "xmlpruned_reactor_threads 1",
        ] {
            assert!(prom.lines().any(|l| l == line), "missing {line:?}:\n{prom}");
        }
    }

    /// The evaluation budget's two counters sit beside the compile
    /// budget's, in JSON and in Prometheus text, with the same values.
    #[test]
    fn eval_steps_and_lane_evals_render_beside_the_compile_counters() {
        let m = ServerMetrics::new();
        m.eval_steps.fetch_add(123_456, Ordering::Relaxed);
        m.lane_evals.fetch_add(2, Ordering::Relaxed);
        let cache = ArtifactCacheStats {
            compile_steps: 7,
            lane_compiles: 1,
            ..Default::default()
        };
        let json = m.render_json(cache);
        assert!(
            json.contains(
                "\"compile_steps\":7,\"lane_compiles\":1,\"eval_steps\":123456,\"lane_evals\":2,"
            ),
            "{json}"
        );
        let prom = m.render_prometheus(cache);
        for line in [
            "# TYPE xmlpruned_eval_steps_total counter",
            "xmlpruned_eval_steps_total 123456",
            "# TYPE xmlpruned_lane_evals_total counter",
            "xmlpruned_lane_evals_total 2",
        ] {
            assert!(prom.lines().any(|l| l == line), "missing {line:?}:\n{prom}");
        }
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile(0.99), Duration::ZERO);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn json_and_prometheus_render() {
        let m = ServerMetrics::new();
        m.requests.fetch_add(3, Ordering::Relaxed);
        m.record_latency(Endpoint::Prune, Duration::from_micros(400));
        m.record_latency(Endpoint::Query, Duration::from_micros(250));
        let cache = ArtifactCacheStats {
            hits: 4,
            misses: 2,
            compiles: 2,
            compile_micros: 1234,
            compile_steps: 56_789,
            lane_compiles: 1,
            entries: 3,
            resident_bytes: 4096,
            ..Default::default()
        };
        let json = m.render_json(cache);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"requests\":3"));
        assert!(json.contains("\"prune\""));
        assert!(json.contains("\"query\""));
        assert!(json.contains("\"compiles\":2"));
        assert!(json.contains("\"compile_micros\":1234"));
        assert!(json.contains("\"resident_bytes\":4096"));
        let prom = m.render_prometheus(cache);
        assert!(prom.contains("xmlpruned_requests_total 3"));
        assert!(prom.contains("endpoint=\"prune\""));
        assert!(prom.contains("endpoint=\"query\""));
        assert!(prom.contains("xmlpruned_cache_compiles_total 2"));
        assert!(prom.contains("xmlpruned_cache_compile_micros_total 1234"));
        assert!(prom.contains("xmlpruned_cache_compile_steps_total 56789"));
        assert!(prom.contains("xmlpruned_cache_lane_compiles_total 1"));
        assert!(prom.contains("xmlpruned_cache_resident_bytes 4096"));
    }
}
