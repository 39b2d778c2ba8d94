//! Warm-restart round trip for the compiled-artifact cache.
//!
//! `--artifact-dir` persists compiled `QueryArtifact`s at graceful
//! shutdown and loads them at bind, so a restarted daemon answers a
//! repeat (DTD, query) pair from the cache without recompiling. The
//! scenario itself is `common::warm_restart_round_trip`.

mod common;

#[test]
fn warm_restart_round_trip() {
    common::warm_restart_round_trip("default", common::Driver::Default);
}
