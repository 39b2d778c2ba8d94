//! The property runner: case generation, failure detection, bounded
//! shrinking, and replayable-seed reporting.
//!
//! Every named property owns a deterministic stream: case `i` of
//! property `name` runs on seed `mix(fnv1a(name) ^ mix(i))`. A failure
//! report prints that case seed; re-running with `TESTKIT_SEED=<seed>`
//! executes exactly the failing case (generation is a pure function of
//! the seed), which is the whole replay convention.

use crate::rng::{fnv1a, mix, SplitMix64};
use crate::strategy::Strategy;
use std::panic::{self, AssertUnwindSafe};

/// Runner configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Number of generated cases.
    pub cases: u32,
    /// Upper bound on accepted shrink steps.
    pub max_shrink_steps: u32,
    /// Replay seed (`TESTKIT_SEED`): run exactly this one case.
    pub replay: Option<u64>,
}

impl Config {
    /// A config running `cases` cases — or `TESTKIT_CASES` of them, an
    /// override (not a multiplier) for every property and fuzzer, where a
    /// value that is no count panics — or the one `TESTKIT_SEED` case.
    pub fn cases(cases: u32) -> Config {
        let cases = match std::env::var("TESTKIT_CASES") {
            Ok(v) => v
                .trim()
                .parse()
                .unwrap_or_else(|_| panic!("TESTKIT_CASES={v:?} is no count")),
            Err(_) => cases,
        };
        Config {
            cases,
            max_shrink_steps: 512,
            replay: parse_seed_env(),
        }
    }
}

/// Parses `TESTKIT_SEED` (decimal or `0x…` hex).
pub fn parse_seed_env() -> Option<u64> {
    let raw = std::env::var("TESTKIT_SEED").ok()?;
    parse_seed(&raw)
}

fn parse_seed(raw: &str) -> Option<u64> {
    let raw = raw.trim();
    if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        raw.parse().ok()
    }
}

thread_local! {
    /// While true, the panic hook swallows output (we report ourselves).
    static QUIET: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Installs (once, process-wide) a panic hook that is silent exactly
/// while this thread runs a property body; other threads keep the
/// default behaviour.
fn install_quiet_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.with(|q| q.get()) {
                previous(info);
            }
        }));
    });
}

/// Runs `prop` quietly, returning the panic message on failure.
fn run_case<V>(prop: impl Fn(&V), value: &V) -> Result<(), String> {
    install_quiet_hook();
    QUIET.with(|q| q.set(true));
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| prop(value)));
    QUIET.with(|q| q.set(false));
    match outcome {
        Ok(()) => Ok(()),
        Err(payload) => Err(payload_message(&payload)),
    }
}

fn payload_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Derives the seed of case `i` in the stream of property `name`.
pub fn case_seed(name: &str, i: u32) -> u64 {
    mix(fnv1a(name) ^ mix(i as u64))
}

/// Runs `case(seed)` over the seeds of `name`'s stream, as many as
/// [`Config::cases`]`(default_cases)` says, and returns how many ran: the
/// fuzzers' driver. Each case draws its input from its seed, so a failure
/// is never shrunk: it prints its panic and location as it happens (the
/// panic hook stays on), then the seed; a replayed case runs uncaught.
pub fn seeded(name: &str, default_cases: u32, case: impl Fn(u64)) -> u32 {
    let cfg = Config::cases(default_cases);
    if let Some(seed) = cfg.replay {
        case(seed);
        return 1;
    }
    for i in 0..cfg.cases {
        let seed = case_seed(name, i);
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| case(seed))) {
            report(name, seed, i + 1, 0, &seed, &payload_message(&payload));
        }
    }
    cfg.cases
}

/// Checks `prop` over `cfg.cases` values drawn from `strat`.
///
/// On failure: shrinks (bounded), then panics with the minimal failing
/// input, the original panic message, and the `TESTKIT_SEED` replay
/// command line.
pub fn check<S: Strategy>(name: &str, cfg: &Config, strat: &S, prop: impl Fn(&S::Value)) {
    if let Some(seed) = cfg.replay {
        let value = strat.generate(&mut SplitMix64::new(seed));
        if let Err(msg) = run_case(&prop, &value) {
            report(name, seed, 0, 0, &value, &msg);
        }
        return;
    }
    for i in 0..cfg.cases {
        let seed = case_seed(name, i);
        let value = strat.generate(&mut SplitMix64::new(seed));
        if let Err(msg) = run_case(&prop, &value) {
            let (value, msg, steps) = shrink_failure(cfg, strat, &prop, value, msg);
            report(name, seed, i + 1, steps, &value, &msg);
        }
    }
}

/// Greedy bounded shrink: repeatedly adopt the first proposed candidate
/// that still fails.
fn shrink_failure<S: Strategy>(
    cfg: &Config,
    strat: &S,
    prop: &impl Fn(&S::Value),
    mut value: S::Value,
    mut msg: String,
) -> (S::Value, String, u32) {
    let mut steps = 0;
    'outer: while steps < cfg.max_shrink_steps {
        for cand in strat.shrink(&value) {
            if let Err(m) = run_case(prop, &cand) {
                value = cand;
                msg = m;
                steps += 1;
                continue 'outer;
            }
        }
        break; // no candidate still fails: minimal
    }
    (value, msg, steps)
}

fn report<V: std::fmt::Debug>(
    name: &str,
    seed: u64,
    after_cases: u32,
    shrink_steps: u32,
    value: &V,
    msg: &str,
) -> ! {
    panic!(
        "[testkit] property '{name}' failed{} ({shrink_steps} shrink steps)\n\
         [testkit] minimal failing input: {value:#?}\n\
         [testkit] assertion: {msg}\n\
         [testkit] replay: TESTKIT_SEED={seed:#x} cargo test {}{name}",
        if after_cases > 0 {
            format!(" after {after_cases} cases")
        } else {
            " on replay".to_string()
        },
        std::env::var("CARGO_PKG_NAME").map_or(String::new(), |p| format!("-p {p} ")),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::vec_of;

    #[test]
    fn passing_property_is_silent() {
        check("always_true", &Config::cases(64), &(0u32..100), |&v| {
            assert!(v < 100);
        });
    }

    #[test]
    fn failing_property_reports_seed_and_shrinks() {
        let caught = panic::catch_unwind(|| {
            check(
                "find_big",
                &Config {
                    cases: 200,
                    max_shrink_steps: 512,
                    replay: None,
                },
                &(0u32..1000),
                |&v| assert!(v < 10, "value {v} too big"),
            );
        });
        let msg = payload_message(&caught.unwrap_err());
        assert!(msg.contains("TESTKIT_SEED="), "{msg}");
        assert!(msg.contains("failed after "), "{msg}");
        assert!(
            msg.contains("cargo test -p xproj-testkit find_big"),
            "{msg}"
        );
        // greedy halving toward 0 lands on the boundary value 10
        assert!(msg.contains("input: 10"), "{msg}");
    }

    #[test]
    fn replay_reproduces_case() {
        // find some failing case seed first
        let caught = panic::catch_unwind(|| {
            check(
                "replay_me",
                &Config {
                    cases: 100,
                    max_shrink_steps: 0,
                    replay: None,
                },
                &(0u32..100),
                |&v| assert!(v < 50),
            );
        });
        let msg = payload_message(&caught.unwrap_err());
        let seed_str = msg.split("TESTKIT_SEED=").nth(1).unwrap();
        let seed = parse_seed(seed_str.split_whitespace().next().unwrap()).unwrap();
        // replaying that seed fails again with the same value class
        let caught = panic::catch_unwind(|| {
            check(
                "replay_me",
                &Config {
                    cases: 100,
                    max_shrink_steps: 0,
                    replay: Some(seed),
                },
                &(0u32..100),
                |&v| assert!(v < 50),
            );
        });
        assert!(payload_message(&caught.unwrap_err()).contains("on replay"));
    }

    #[test]
    fn vectors_shrink_to_small_witnesses() {
        let caught = panic::catch_unwind(|| {
            check(
                "vec_shrink",
                &Config {
                    cases: 300,
                    max_shrink_steps: 512,
                    replay: None,
                },
                &vec_of(0u32..100, 0..20),
                |v: &Vec<u32>| assert!(!v.iter().any(|&x| x >= 90)),
            );
        });
        let msg = payload_message(&caught.unwrap_err());
        assert!(msg.contains("vec_shrink"), "{msg}");
    }

    #[test]
    fn a_failing_seeded_case_reports_its_seed() {
        let caught = panic::catch_unwind(|| {
            seeded("seeded_fails", 50, |seed| panic!("case {seed:#x} fails"));
        });
        let msg = payload_message(&caught.unwrap_err());
        let seed = case_seed("seeded_fails", 0);
        assert!(
            msg.contains("property 'seeded_fails' failed after 1 cases"),
            "{msg}"
        );
        assert!(msg.contains(&format!("case {seed:#x} fails")), "{msg}");
        assert!(msg.contains(&format!("TESTKIT_SEED={seed:#x}")), "{msg}");
    }

    #[test]
    fn a_case_count_that_is_no_number_panics() {
        if std::env::var("TESTKIT_CASES").is_ok_and(|v| v == "many") {
            Config::cases(1); // the child run: must panic
            return;
        }
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args([
                "--exact",
                "runner::tests::a_case_count_that_is_no_number_panics",
            ])
            .env("TESTKIT_CASES", "many")
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!out.status.success(), "{stdout}");
        assert!(
            stdout.contains("TESTKIT_CASES=\"many\" is no count"),
            "{stdout}"
        );
    }

    #[test]
    fn seed_parsing() {
        assert_eq!(parse_seed("123"), Some(123));
        assert_eq!(parse_seed("0xff"), Some(255));
        assert_eq!(parse_seed(" 0XFF "), Some(255));
        assert_eq!(parse_seed("zz"), None);
    }
}
