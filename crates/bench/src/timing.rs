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

    /// Times `f`, printing a JSON result line; returns the median.
    pub fn bench<R>(&self, group: &str, label: &str, f: impl FnMut() -> R) -> Duration {
        self.run(group, label, None, f)
    }

    /// Like [`Timer::bench`] but also reports throughput over `bytes`
    /// of input per iteration.
    pub fn bench_bytes<R>(
        &self,
        group: &str,
        label: &str,
        bytes: usize,
        f: impl FnMut() -> R,
    ) -> Duration {
        self.run(group, label, Some(bytes), f)
    }

    /// Times several closures over the same `bytes` of input **round
    /// robin** — sample 1 of each, then sample 2 of each, … — and
    /// returns their medians in order. For cells that are compared as a
    /// ratio: a burst of machine noise lands on every cell's sample
    /// alike instead of on one cell's whole run.
    pub fn bench_bytes_interleaved(
        &self,
        group: &str,
        bytes: usize,
        cells: &mut [(&str, &mut dyn FnMut() -> usize)],
    ) -> Vec<Duration> {
        let mut times = vec![Vec::with_capacity(self.samples); cells.len()];
        for round in 0..self.warmup + self.samples {
            for (i, (_, f)) in cells.iter_mut().enumerate() {
                let t0 = Instant::now();
                black_box(f());
                if round >= self.warmup {
                    times[i].push(t0.elapsed());
                }
            }
        }
        cells
            .iter()
            .zip(times)
            .map(|((label, _), times)| self.report(group, label, Some(bytes), times))
            .collect()
    }

    fn run<R>(
        &self,
        group: &str,
        label: &str,
        bytes: Option<usize>,
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
        self.report(group, label, bytes, times)
    }

    /// Prints one JSON result line for `times`; returns the median.
    fn report(
        &self,
        group: &str,
        label: &str,
        bytes: Option<usize>,
        mut times: Vec<Duration>,
    ) -> Duration {
        times.sort();
        let median = times[times.len() / 2];
        let min = times[0];
        let mean = times.iter().sum::<Duration>() / times.len() as u32;
        let mut line = format!(
            "{{\"group\":\"{group}\",\"bench\":\"{label}\",\"median_ns\":{},\"min_ns\":{},\"mean_ns\":{},\"samples\":{}",
            median.as_nanos(),
            min.as_nanos(),
            mean.as_nanos(),
            self.samples,
        );
        if let Some(b) = bytes {
            let mib_s = b as f64 / (1 << 20) as f64 / median.as_secs_f64().max(1e-12);
            line.push_str(&format!(",\"throughput_mib_s\":{mib_s:.1}"));
        }
        line.push('}');
        println!("{line}");
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
        let d = t.bench("test", "spin", || {
            n = n.wrapping_add(1);
            std::hint::black_box(n)
        });
        assert!(d.as_nanos() > 0 || d.is_zero()); // no panic, sane value
    }
}
