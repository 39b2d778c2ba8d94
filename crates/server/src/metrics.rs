//! Live server metrics: request/connection counters, the aggregated
//! engine statistics of every prune served, and per-endpoint latency
//! histograms — rendered as JSON (the workspace's native format) or
//! Prometheus text exposition.
//!
//! Counters are lock-free atomics; the only lock is around the
//! aggregated [`EngineStats`], taken once per completed prune request.

use crate::http::json_escape;
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
        self.sum_ns.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
        self.max_ns.fetch_max(d.as_nanos() as u64, Ordering::Relaxed);
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
    /// CPU jobs handed to the executor pool (epoll driver).
    pub executor_jobs: AtomicU64,
    /// CPU jobs currently queued or running on the executor pool.
    pub executor_queue_depth: AtomicUsize,
    /// High-water mark of one connection's application-level residency
    /// (input + output buffers + the engine session), in bytes — see
    /// [`crate::conn::Connection::resident_bytes`]. The backpressure
    /// design bounds this by O(out_buffer_cap + chunk + document depth)
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

    /// Folds one completed prune run into the aggregate.
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

    /// The full metrics document as one JSON object. `cache` is the
    /// live artifact-cache counters.
    pub fn render_json(&self, cache: ArtifactCacheStats) -> String {
        let engine = self.engine_snapshot();
        let mut out = String::with_capacity(1024);
        let _ = write!(
            out,
            "{{\"server\":{{\"uptime_ms\":{},\"connections\":{},\"requests\":{},\"errors\":{},\
             \"in_flight\":{},\"drained\":{},\"aborted\":{},\"rate_limited\":{},\
             \"accept_stalls\":{}}},",
            self.started.elapsed().as_millis(),
            self.connections.load(Ordering::Relaxed),
            self.requests.load(Ordering::Relaxed),
            self.errors.load(Ordering::Relaxed),
            self.in_flight.load(Ordering::Relaxed),
            self.drained.load(Ordering::Relaxed),
            self.aborted.load(Ordering::Relaxed),
            self.rate_limited.load(Ordering::Relaxed),
            self.accept_stalls.load(Ordering::Relaxed),
        );
        let _ = write!(
            out,
            "\"engine\":{{\"documents\":{},\"events\":{},\"bytes_in\":{},\"bytes_out\":{},\
             \"retention\":{:.4},\"elements_kept\":{},\"elements_pruned\":{},\"text_kept\":{},\
             \"text_pruned\":{},\"max_depth\":{},\"peak_resident_bytes\":{},\"max_token_bytes\":{}}},",
            engine.documents,
            engine.events,
            engine.bytes_in,
            engine.bytes_out,
            engine.retention(),
            engine.counters.elements_kept,
            engine.counters.elements_pruned,
            engine.counters.text_kept,
            engine.counters.text_pruned,
            engine.counters.max_depth,
            engine.peak_resident_bytes,
            engine.max_token_bytes,
        );
        if let Some(r) = self.reactor_snapshot() {
            let _ = write!(
                out,
                "\"reactor\":{{\"reactor_threads\":{},\"registered_fds\":{},\
                 \"ready_events\":{},\"polls\":{},\
                 \"wakes\":{},\"timer_fires\":{},\"executor_jobs\":{},\
                 \"executor_queue_depth\":{},\"admission_rejects\":{},\
                 \"max_conn_resident\":{}}},",
                r.loops,
                r.registered,
                r.ready_events,
                r.polls,
                r.wakes,
                r.timer_fires,
                self.executor_jobs.load(Ordering::Relaxed),
                self.executor_queue_depth.load(Ordering::Relaxed),
                self.admission_rejects.load(Ordering::Relaxed),
                self.max_conn_resident.load(Ordering::Relaxed),
            );
        }
        let _ = write!(
            out,
            "\"cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"compiles\":{},\
             \"compile_micros\":{},\"loads\":{},\"invalidations\":{},\"entries\":{},\
             \"resident_bytes\":{},\"hit_rate\":{:.4}}},",
            cache.hits,
            cache.misses,
            cache.evictions,
            cache.compiles,
            cache.compile_micros,
            cache.loads,
            cache.invalidations,
            cache.entries,
            cache.resident_bytes,
            cache.hit_rate(),
        );
        out.push_str("\"endpoints\":{");
        let mut first = true;
        for ep in Endpoint::ALL {
            let h = self.latency(ep);
            if h.count() == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"p50_us\":{},\"p99_us\":{},\"max_us\":{},\"sum_ms\":{}}}",
                json_escape(ep.label()),
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

    /// The same metrics in the Prometheus text exposition format
    /// (counters, gauges, and per-endpoint latency summaries).
    pub fn render_prometheus(&self, cache: ArtifactCacheStats) -> String {
        let engine = self.engine_snapshot();
        let mut out = String::with_capacity(2048);
        let mut counter = |name: &str, help: &str, v: u64| {
            let _ = write!(
                out,
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"
            );
        };
        counter(
            "xmlpruned_connections_total",
            "Connections accepted.",
            self.connections.load(Ordering::Relaxed),
        );
        counter(
            "xmlpruned_requests_total",
            "Requests parsed and routed.",
            self.requests.load(Ordering::Relaxed),
        );
        counter(
            "xmlpruned_errors_total",
            "Requests answered 4xx/5xx or dropped.",
            self.errors.load(Ordering::Relaxed),
        );
        counter(
            "xmlpruned_accept_stalls_total",
            "Accept errors (fd exhaustion) that paused the listener.",
            self.accept_stalls.load(Ordering::Relaxed),
        );
        counter(
            "xmlpruned_engine_documents_total",
            "Documents pruned.",
            engine.documents,
        );
        counter(
            "xmlpruned_engine_bytes_in_total",
            "Document bytes received for pruning.",
            engine.bytes_in,
        );
        counter(
            "xmlpruned_engine_bytes_out_total",
            "Pruned bytes written back.",
            engine.bytes_out,
        );
        counter(
            "xmlpruned_cache_hits_total",
            "Artifact cache hits.",
            cache.hits,
        );
        counter(
            "xmlpruned_cache_misses_total",
            "Artifact cache misses.",
            cache.misses,
        );
        counter(
            "xmlpruned_cache_evictions_total",
            "Artifact cache evictions.",
            cache.evictions,
        );
        counter(
            "xmlpruned_cache_compiles_total",
            "Query artifacts compiled (inference + lowering).",
            cache.compiles,
        );
        counter(
            "xmlpruned_cache_compile_micros_total",
            "Wall-clock microseconds spent compiling artifacts.",
            cache.compile_micros,
        );
        counter(
            "xmlpruned_cache_loads_total",
            "Artifacts restored from the on-disk artifact dir.",
            cache.loads,
        );
        counter(
            "xmlpruned_cache_invalidations_total",
            "Artifacts dropped because a document update overlapped their projector.",
            cache.invalidations,
        );
        if let Some(r) = self.reactor_snapshot() {
            counter(
                "xmlpruned_reactor_ready_events_total",
                "Readiness events delivered by epoll (all loops).",
                r.ready_events,
            );
            counter(
                "xmlpruned_reactor_polls_total",
                "epoll_wait calls that returned (all loops).",
                r.polls,
            );
            counter(
                "xmlpruned_reactor_wakes_total",
                "eventfd waker interrupts observed (all loops).",
                r.wakes,
            );
            counter(
                "xmlpruned_reactor_timer_fires_total",
                "Timer-wheel deadlines fired (all loops).",
                r.timer_fires,
            );
            counter(
                "xmlpruned_executor_jobs_total",
                "CPU jobs handed to the executor pool.",
                self.executor_jobs.load(Ordering::Relaxed),
            );
            counter(
                "xmlpruned_admission_rejects_total",
                "Connections refused 503 at the admission limit.",
                self.admission_rejects.load(Ordering::Relaxed),
            );
            counter(
                "xmlpruned_rate_limited_total",
                "Requests refused 429 by the token-bucket rate limiter.",
                self.rate_limited.load(Ordering::Relaxed),
            );
        }
        let _ = write!(
            out,
            "# HELP xmlpruned_in_flight Requests currently being processed.\n\
             # TYPE xmlpruned_in_flight gauge\nxmlpruned_in_flight {}\n\
             # HELP xmlpruned_cache_entries Artifacts currently resident.\n\
             # TYPE xmlpruned_cache_entries gauge\nxmlpruned_cache_entries {}\n\
             # HELP xmlpruned_cache_resident_bytes Approximate bytes held by resident artifacts.\n\
             # TYPE xmlpruned_cache_resident_bytes gauge\nxmlpruned_cache_resident_bytes {}\n",
            self.in_flight.load(Ordering::Relaxed),
            cache.entries,
            cache.resident_bytes,
        );
        if let Some(r) = self.reactor_snapshot() {
            let _ = write!(
                out,
                "# HELP xmlpruned_reactor_threads Reactor event loops running.\n\
                 # TYPE xmlpruned_reactor_threads gauge\nxmlpruned_reactor_threads {}\n\
                 # HELP xmlpruned_reactor_registered_fds Currently registered fds (all loops).\n\
                 # TYPE xmlpruned_reactor_registered_fds gauge\nxmlpruned_reactor_registered_fds {}\n\
                 # HELP xmlpruned_executor_queue_depth CPU jobs queued or running.\n\
                 # TYPE xmlpruned_executor_queue_depth gauge\nxmlpruned_executor_queue_depth {}\n\
                 # HELP xmlpruned_max_conn_resident_bytes High-water per-connection residency.\n\
                 # TYPE xmlpruned_max_conn_resident_bytes gauge\nxmlpruned_max_conn_resident_bytes {}\n",
                r.loops,
                r.registered,
                self.executor_queue_depth.load(Ordering::Relaxed),
                self.max_conn_resident.load(Ordering::Relaxed),
            );
        }
        let _ = write!(
            out,
            "# HELP xmlpruned_request_duration_seconds Request latency by endpoint.\n\
             # TYPE xmlpruned_request_duration_seconds summary\n"
        );
        for ep in Endpoint::ALL {
            let h = self.latency(ep);
            if h.count() == 0 {
                continue;
            }
            let label = ep.label();
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
        assert!(p99 > Duration::ZERO && p99 <= Duration::from_micros(2), "{p99:?}");
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
        assert!(h.quantile(0.5) <= h.quantile(0.99), "p50 must not exceed p99");
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
            loads: 1,
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
        assert!(json.contains("\"loads\":1"));
        assert!(json.contains("\"resident_bytes\":4096"));
        let prom = m.render_prometheus(cache);
        assert!(prom.contains("xmlpruned_requests_total 3"));
        assert!(prom.contains("endpoint=\"prune\""));
        assert!(prom.contains("endpoint=\"query\""));
        assert!(prom.contains("xmlpruned_cache_compiles_total 2"));
        assert!(prom.contains("xmlpruned_cache_compile_micros_total 1234"));
        assert!(prom.contains("xmlpruned_cache_loads_total 1"));
        assert!(prom.contains("xmlpruned_cache_resident_bytes 4096"));
    }
}
