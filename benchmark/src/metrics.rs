//! The metric tables: every name this benchmark prints, with its unit.
//! `BENCHMARK.json` carries the same names; `tests/contract.rs` keeps the
//! two in step.

/// `(name, unit, better, bound)`. The bound is the share of the parent's
/// median by which the metric may worsen before it counts as a
/// regression. The timings are medians over the slices of the window,
/// corrected to the machine-speed reference (`reference.rs`); on the box
/// this was written on their inter-quartile range over ten runs is 1–9 %
/// of the median, and 3–29 % uncorrected (README, "Noise floor"), so the
/// bounds sit at the contract's cap of 0.25. The two exact ratios repeat
/// exactly, so their bound only has to be positive; `expected.json` and
/// the `correct` flag enforce exactness.
pub const END_TO_END: [(&str, &str, &str, f64); 8] = [
    ("req_per_s", "1/s", "higher", 0.25),
    ("latency_p50_us", "us", "lower", 0.25),
    ("latency_p99_per_p50", "ratio", "lower", 0.25),
    ("server_cpu_us_per_req", "us", "lower", 0.25),
    ("server_peak_rss_mib", "MiB", "lower", 0.25),
    ("bytes_out_per_byte_in", "ratio", "lower", 0.000001),
    ("verified_share", "ratio", "higher", 0.000001),
    ("setup_s", "s", "lower", 0.25),
];

/// `(name, unit, better)`; the prefix is the crate the number belongs to.
pub const PER_LAYER: [(&str, &str, &str); 45] = [
    ("xmltree.scan_ns_per_byte", "ns/byte", "lower"),
    ("xmltree.tokenize_ns_per_byte", "ns/byte", "lower"),
    ("xmltree.tokens_per_kib", "1/KiB", "lower"),
    ("xmltree.peak_buffered_bytes", "bytes", "lower"),
    ("core.machine_ns_per_event.q1", "ns/event", "lower"),
    ("core.machine_ns_per_event.q2", "ns/event", "lower"),
    ("core.machine_ns_per_event.q3", "ns/event", "lower"),
    ("core.infer_us_per_query", "us", "lower"),
    ("core.retained_fraction.q1", "ratio", "lower"),
    ("core.retained_fraction.q2", "ratio", "lower"),
    ("core.retained_fraction.q3", "ratio", "lower"),
    ("qc.compile_us", "us", "lower"),
    ("qc.cache_hit_ns", "ns", "lower"),
    ("qc.cache_miss_us", "us", "lower"),
    ("qc.hit_ratio", "ratio", "higher"),
    ("qc.compile_us_served", "us", "lower"),
    ("engine.prune_ns_per_byte.q1", "ns/byte", "lower"),
    ("engine.prune_ns_per_byte.q2", "ns/byte", "lower"),
    ("engine.prune_ns_per_byte.q3", "ns/byte", "lower"),
    ("engine.prune_peak_resident_bytes", "bytes", "lower"),
    ("engine.fast_forward_share", "ratio", "higher"),
    ("engine.query_ns_per_byte.streaming", "ns/byte", "lower"),
    ("engine.query_ns_per_byte.fallback", "ns/byte", "lower"),
    ("engine.prune_peak_alloc_bytes", "bytes", "lower"),
    ("engine.query_peak_alloc_bytes", "bytes", "lower"),
    ("engine.cell_us_per_req", "us", "lower"),
    ("reactor.wake_poll_ns", "ns", "lower"),
    ("reactor.echo_rtt_ns", "ns", "lower"),
    ("reactor.timer_arm_advance_ns", "ns", "lower"),
    ("reactor.polls_per_req", "count", "lower"),
    ("reactor.wakes_per_req", "count", "lower"),
    ("server.executor_jobs_per_req", "count", "lower"),
    ("server.healthz_rtt_us", "us", "lower"),
    ("server.endpoint_p50_us", "us", "lower"),
    ("server.endpoint_p99_us", "us", "lower"),
    ("server.endpoint_mean_us", "us", "lower"),
    ("server.ctxsw_per_req", "count", "lower"),
    ("server.busy_share", "ratio", "higher"),
    ("server.cpu_us_per_req", "us", "lower"),
    ("server.tax_ratio", "ratio", "lower"),
    ("loadgen.cpu_us_per_req", "us", "lower"),
    ("loadgen.lateness", "ratio", "lower"),
    ("trace.req_per_s", "1/s", "higher"),
    ("trace.untraced_req_per_s", "1/s", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
];

/// Named values of one run, in table order.
#[derive(Default)]
pub struct Rows(pub Vec<(String, f64)>);

impl Rows {
    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|&(n, u, _, _)| (n, u))
        .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        .find(|&(n, _)| n == name)
        .map_or("", |(_, u)| u)
}
