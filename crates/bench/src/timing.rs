//! Zero-dependency wall-clock micro-benchmark runner.
//!
//! Replaces criterion for this workspace's hermetic builds: each
//! measurement runs a closure `warmup + samples` times and reports the
//! **median** wall-clock time (robust against scheduler noise without
//! criterion's bootstrap machinery), one JSON object per line on
//! stdout so results can be collected with a `grep '^{' | jq` pipeline.
//!
//! Knobs: `XPROJ_BENCH_SAMPLES` (default 15), `XPROJ_BENCH_WARMUP`
//! (default 3).

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median-of-N wall-clock measurement loop.
pub struct Timer {
    warmup: usize,
    samples: usize,
}

impl Default for Timer {
    fn default() -> Self {
        Timer::from_env()
    }
}

impl Timer {
    /// Reads sample counts from the environment.
    pub fn from_env() -> Timer {
        let get = |k: &str, d: usize| {
            std::env::var(k)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(d)
        };
        Timer {
            warmup: get("XPROJ_BENCH_WARMUP", 3),
            samples: get("XPROJ_BENCH_SAMPLES", 15).max(1),
        }
    }

    /// Times `f`, printing a JSON result line with the throughput over
    /// `bytes` of input per iteration; returns the median.
    pub fn bench_bytes<R>(
        &self,
        group: &str,
        label: &str,
        bytes: usize,
        mut f: impl FnMut() -> R,
    ) -> Duration {
        for _ in 0..self.warmup {
            black_box(f());
        }
        let mut times: Vec<Duration> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t0 = Instant::now();
            black_box(f());
            times.push(t0.elapsed());
        }
        times.sort();
        let median = times[times.len() / 2];
        let min = times[0];
        let mean = times.iter().sum::<Duration>() / times.len() as u32;
        let mib_s = bytes as f64 / (1 << 20) as f64 / median.as_secs_f64().max(1e-12);
        println!(
            "{{\"group\":\"{group}\",\"bench\":\"{label}\",\"median_ns\":{},\"min_ns\":{},\"mean_ns\":{},\"samples\":{},\"throughput_mib_s\":{mib_s:.1}}}",
            median.as_nanos(),
            min.as_nanos(),
            mean.as_nanos(),
            self.samples,
        );
        median
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_positive_and_printed() {
        let t = Timer {
            warmup: 1,
            samples: 5,
        };
        let mut n = 0u64;
        let d = t.bench_bytes("test", "spin", 1, || {
            n = n.wrapping_add(1);
            std::hint::black_box(n)
        });
        assert!(d.as_nanos() > 0 || d.is_zero()); // no panic, sane value
    }
}
