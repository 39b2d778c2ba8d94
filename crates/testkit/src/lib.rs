//! **xproj-testkit** — a zero-dependency property-testing harness.
//!
//! The workspace's tier-1 verify must run hermetically (no network, no
//! crates.io), so this crate replaces `proptest`/`rand` with a small,
//! deterministic stack:
//!
//! * [`rng::SplitMix64`] — the shared PRNG (also used by the document
//!   generators in `xproj-dtd` and `xproj-xmark`);
//! * [`strategy`] — generator combinators with bounded, value-based
//!   shrinking;
//! * [`runner`] — the case loops (`check`, `seeded`), failing-seed reports;
//! * [`http`] — a minimal blocking HTTP/1.1 client (keep-alive,
//!   chunked bodies, pipelining) for exercising the `xmlpruned` server;
//! * [`forall!`] — a `proptest!`-shaped macro so ported tests keep
//!   their structure.
//!
//! # Replay convention
//!
//! Every failure panics with a line of the form
//!
//! ```text
//! [testkit] replay: TESTKIT_SEED=0x1234abcd cargo test property_name
//! ```
//!
//! Setting `TESTKIT_SEED` re-runs exactly that case (generation is a
//! pure function of the seed). `TESTKIT_CASES=n` overrides the case
//! count of every property and fuzzer, e.g. for longer CI fuzzing runs.
//!
//! # Example
//!
//! Inside a test module the [`forall!`] macro is the normal entry
//! point; the underlying runner is also callable directly:
//!
//! ```
//! use xproj_testkit::{runner, strategy::vec_of, Config};
//!
//! runner::check(
//!     "reverse_is_involutive",
//!     &Config::cases(128),
//!     &vec_of(0u32..100, 0..8),
//!     |v| {
//!         let mut w = v.clone();
//!         w.reverse();
//!         w.reverse();
//!         assert_eq!(&w, v);
//!     },
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod json;
pub mod rng;
pub mod runner;
pub mod strategy;

pub use http::{urlencode, HttpClient, HttpResponse};
pub use json::{parse_json, Json};
pub use rng::{fnv1a, mix, SplitMix64};
pub use runner::{case_seed, check, seeded, Config};
pub use strategy::{
    charset, ident, one_of, recursive, string_of, vec_of, weighted, Just, RcStrategy, Strategy,
    StrategyExt,
};

/// Defines `#[test]` functions checking properties over generated
/// inputs, in the shape of `proptest!`:
///
/// ```ignore
/// forall! {
///     #![cases(512)]
///
///     /// Doc comments and attributes are carried through.
///     fn my_property(x in 0u32..10, v in vec_of(0u32..10, 0..4)) {
///         assert!(x < 10 && v.len() < 4);
///     }
/// }
/// ```
///
/// The `#![cases(n)]` header is optional (default 256) and applies to
/// every property in the block. Inside a body, plain
/// `assert!`/`assert_eq!`/`panic!` mark failures; use `return` to skip
/// an uninteresting case.
#[macro_export]
macro_rules! forall {
    (
        #![cases($cases:expr)]
        $($rest:tt)+
    ) => {
        $crate::forall! { @impl ($cases) $($rest)+ }
    };
    (@impl ($cases:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )+) => {$(
        $(#[$meta])*
        #[test]
        fn $name() {
            let __strat = ($($strat,)+);
            let __cfg = $crate::runner::Config::cases($cases);
            $crate::runner::check(stringify!($name), &__cfg, &__strat, |__value| {
                let ($($arg,)+) = ::std::clone::Clone::clone(__value);
                $body
            });
        }
    )+};
    ($($rest:tt)+) => {
        $crate::forall! { @impl (256u32) $($rest)+ }
    };
}

#[cfg(test)]
mod tests {
    use crate::strategy::{vec_of, StrategyExt};

    forall! {
        fn default_case_count(x in 0u64..1000) {
            let _ = x;
        }
    }

    forall! {
        #![cases(32)]

        /// Attributes and docs on properties are preserved.
        fn multiple_args(x in 0u32..10, v in vec_of(0u32..10, 0..4), s in crate::strategy::string_of("a-z", 1..5)) {
            assert!(x < 10);
            assert!(v.len() < 4);
            assert!(!s.is_empty());
        }

        fn mapped_strategies(n in (0u32..50).prop_map(|x| x * 2)) {
            assert!(n % 2 == 0 && n < 100);
        }
    }
}
