#!/usr/bin/env bash
# The verify, exactly as CI runs it: build, clippy, the workspace tests
# (every gate among them: tests/surface.rs holds the surface table, the
# public-function census, the retired names of tests/retired.txt and the
# structural checks), rustdoc, then the legs the workspace run cannot
# be: each builds --release or raises a count above the test's default,
# so no leg runs a test the workspace leg already ran.
#
# The workspace is hermetic (path dependencies only), so everything
# runs --offline --locked: no registry, no network.
set -euo pipefail
cd "$(dirname "$0")"
ci_started=$SECONDS

# `leg TITLE` prints a leg's header and books the seconds of the leg
# before it (a bare `leg` books the last); the run ends by printing each
# header with its seconds beside it, then the total.
legs=""
leg() {
    [ -z "${leg_title:-}" ] ||
        legs+="$(printf '%4d s  == %s ==' $((SECONDS - leg_started)) "$leg_title")"$'\n'
    leg_title=${1:-} leg_started=$SECONDS
    [ -z "$leg_title" ] || echo "== $leg_title =="
}

leg "build (release, workspace, offline, locked)"
cargo build --release --workspace --offline --locked

leg "rustfmt (workspace, check)"
cargo fmt --all --check

leg "clippy (workspace, all targets, deny warnings)"
cargo clippy --workspace --all-targets --offline --locked -- -D warnings

leg "test (tier-1: the default members are the whole workspace)"
cargo test -q --offline --locked

leg "rustdoc (workspace, no deps, deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --locked

leg "streamed validation at 500 cases (default 200)"
# `xmlprune validate` streams: the validating pass must accept exactly
# what `dtd::validate` accepts on the tree, indented documents included.
TESTKIT_CASES=500 cargo test -q --offline --locked -p xproj-engine \
    --test validate_equiv random_documents_and_truncations_agree

leg "tokenizer walls, release leg (32 MiB hostile tokens, every boundary, behaviour and error-parity pins)"
# The workspace run above covers 1 MiB tokens at feeds of 1, 7, 4096 and
# 64 Ki bytes; this leg is the size at which a scanner that rescans the
# incomplete token on every feed takes seconds per token instead of
# milliseconds. The assertion is a byte counter, not a clock. The other
# three walls run here too because the name byte-class table and the
# scanner's `&` flag compile differently under optimisation.
TESTKIT_HOSTILE_MIB=32 cargo test -q --release --offline --locked \
    -p xproj-xmltree --test hostile_tokens
cargo test -q --release --offline --locked -p xproj-xmltree \
    --test every_boundary --test tokenizer --test error_parity

leg "capture-visit gate, release leg (XMark scale 4, 6.6 MB)"
# The workspace run above holds `capture_visits <= events * (max_depth +
# 1)` at two small scales; this leg is the size at which a matcher that
# walks the queue of completed captures on every event takes half a
# minute for `//*` instead of a third of a second. A counter, not a clock.
TESTKIT_XMARK_SCALE=4 cargo test -q --release --offline --locked \
    -p xproj-engine --test capture_visits

leg "compile step budget, release leg (exact counts, the up/down family to k = 8, placement)"
# The workspace run above pins the step counts of the up/down family to
# k = 3; this leg pins all eight (k = 8 is 0.4 s optimised, far longer
# unoptimised), and drives the placement test against an optimised
# server: a friendly cold compile stays on the loop, an over-budget one
# crosses to the lane, and a /healthz overtakes it. The error-parity
# leg above carries the unique-attribute rows.
cargo test -q --release --offline --locked -p xml-projection --test compile_steps
cargo test -q --release --offline --locked -p xproj-server --test integration \
    cold_compiles_run_on_the_loop_within_the_step_budget

leg "connection-machine simulation + adversarial wall, release leg (no sockets, 500 cases)"
# The sans-I/O Connection under seeded schedules of read fragmentation,
# partial writes, reordered completions and clock steps: any schedule
# must answer like the trivial one and like the in-process engine, hold
# the configured residency bound, stay live, and fire timers at exact
# instants; random and mutated HTTP bytes must never panic it. A
# failure prints the TESTKIT_SEED that replays it.
TESTKIT_CASES=500 cargo test -q --release --offline --locked \
    -p xproj-server --test simulation

leg "one-pass residency and idle-connection sweep, release leg (counters, not clocks)"
# What the retired query bench and server sweep checked, as exact tests
# on optimised builds: the one-pass answer equals prune -> parse ->
# evaluate, tokenizes no more than the pruning pass, and its peak
# allocation tracks the answer while the pipeline's tracks the document
# (XMark 0.1 vs 0.5); a fallback plan, which builds t∖π from its kept
# events, peaks below that pipeline on XMark 0.5; and a thousand idle
# keep-alive connections, on one
# loop and on two, leave 200 cached prunes byte-exact with every idle
# connection open, no error, no accept stall and nothing aborted.
cargo test -q --release --offline --locked -p xproj-bench --test one_pass_alloc
cargo test -q --release --offline --locked -p xproj-server --test integration \
    a_thousand_idle_keep_alive_connections_cost_slots_not_service

leg "benchmark ledger (frozen surface builds, contract tests, 2 s smoke)"
# benchmark/ is its own workspace building --locked against these
# crates: a break of the surface it uses, or a response body drifting
# from benchmark/expected.json ("inputs drifted", verified_share < 1),
# must fail here and not in the driver's pipeline.
CARGO_TARGET_DIR="$PWD/target" \
    cargo test -q --manifest-path benchmark/Cargo.toml --offline --locked
benchmark/run.sh --seconds 2 > /tmp/BENCH_ledger.smoke.txt
python3 - <<'PY'
shares = [l.split()[1] for l in open('/tmp/BENCH_ledger.smoke.txt')
          if l.startswith('verified_share ')]
assert len(shares) == 4 and all(float(s) == 1.0 for s in shares), shares
print("benchmark smoke: verified_share = 1 on all four workloads")
PY

leg
printf '%s' "$legs"
echo "ci: OK ($((SECONDS - ci_started)) s wall)"

# Wall-time cap, warm: 92 s — the median of five warm runs on a 2-vCPU
# box (84 s) plus 10 %. Over the cap, the per-leg table above says which
# leg grew.
