#!/usr/bin/env bash
# Tier-1 verify + fuzzer smoke, exactly as CI runs it.
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

leg "unsafe gate (grep: unsafe only in the two audited modules)"
# Every crate carries #![forbid(unsafe_code)] except the reactor and
# the bench harness, which deny it crate-wide and scope an #[allow] to
# exactly one audited module each: the raw epoll/eventfd/setsockopt/
# writev/SO_REUSEPORT FFI (reactor/src/sys.rs) and the GlobalAlloc wrapper
# (bench/src/counter.rs — allocator hooks cannot be safe Rust). This
# gate fails if an `unsafe` expression/item appears anywhere else.
if grep -rn --include='*.rs' -E 'unsafe (fn|impl|trait|\{)|unsafe\{' src crates \
    | grep -vE '^crates/(reactor/src/sys|bench/src/counter)\.rs:'; then
    echo "unsafe gate: found unsafe outside the audited modules" >&2
    exit 1
fi

leg "one-loop gate (grep: no second token cursor, pass object or artifact constructor, no deleted facade)"
# `PushTokenizer::drain` is the only token loop. The raw cursor
# (`RawKind`, `peek_token`/`advance`) survives in push.rs for the frozen
# benchmark ladder only; the pull reader and the ProjectorCache facade
# are gone. This gate fails if any of them is used from production code.
if grep -rn --include='*.rs' -E 'RawKind::|XmlReader|ProjectorCache|legacy_cache|\.next_event\(' src crates/*/src \
    | grep -v '^crates/xmltree/src/push\.rs:'; then
    echo "one-loop gate: found a second token cursor or a deleted facade" >&2
    exit 1
fi
# One private `Scanner` in push.rs decides where every token ends, for
# the token loop, fast-forward and the frozen cursor alike: the restart-
# from-the-token-head scanner, the separate skip scanner and the helper
# only they called must not come back. (Scoped to xmltree: the DTD
# parser has an unrelated `classify`. `scan::memchr2` is back, as the
# token-mode text scan for `<` and `&` inside that one `Scanner`.)
if grep -rnE '\b(classify|run_skip|SkipState|SkipScan|SkipOutcome|find_seq)\b' crates/xmltree/src; then
    echo "one-loop gate: found a second boundary scanner" >&2
    exit 1
fi
# `QueryMachine` is the only owned per-document pass (the server feeds
# nothing else) and `xmlprune prune` has one path: the session types,
# the error chain and the helpers that forked them must not come back,
# in the sources or in any test; the retired CLI flag may be spelled
# only by the unknown-flag test in tests/cli.rs.
if grep -rnE '\b(PruneSession|StreamSession|StreamError|QueryError|prune_reader_buffered|finish_with_sink|run_chunked_prune)\b' \
    src crates/*/src crates/*/tests tests; then
    echo "one-loop gate: found a second pass object or its error chain" >&2
    exit 1
fi
# Both engine passes run one private driver of the token loop, and the
# residency bound is spelled once, in `residency_bound`.
if [ "$(grep -rF 'PushTokenizer::new()' crates/engine/src | wc -l)" -ne 1 ]; then
    echo "one-loop gate: the engine must construct exactly one PushTokenizer" >&2
    exit 1
fi
if grep -rnE '\b(StreamExec|finish_parts)\b' src crates tests; then
    echo "one-loop gate: found a second engine driver" >&2
    exit 1
fi
if [ "$(grep -rnF '64 * (1 +' src crates tests | cut -d: -f1)" != "crates/engine/src/chunked.rs" ]; then
    echo "one-loop gate: the residency bound is spelled outside residency_bound" >&2
    exit 1
fi
if grep -rn -e '--chunked' src crates/*/src; then
    echo "one-loop gate: found the retired --chunked flag" >&2
    exit 1
fi
# `QueryArtifact::compile` is the only way an artifact comes into being
# and `Dtd::fingerprint()` the only place a grammar gets its identity:
# the artifact file format, its directory, its flag and the free
# fingerprint function must not come back, in the sources or any test.
if grep -rnE '\b(to_bytes|from_bytes|save_dir|load_dir|artifact_dir|query_hash|dtd_fingerprint)\b|--artifact-dir|\.xqa' \
    src crates/*/src crates/*/tests tests examples; then
    echo "one-loop gate: found the artifact file format or a second fingerprint" >&2
    exit 1
fi

leg "one-path gate (grep: no batch driver, projector file, DTD diff or second residency knob)"
# Every `xmlprune` subcommand has one execution path and every
# connection one buffer size: the batch driver, the saved-projector
# format, the DTD diff and the two derived `ServerConfig` fields must
# not come back, in the sources or in any test; their flags may be
# spelled only by the unknown-flag tests (tests/cli.rs whole, xmlpruned's
# in two halves), and `query` has no second evaluator to fall back to.
if grep -rnE '\b(run_batch|parallel_map|BatchJob|diff_projectors|ProjectorDiff|out_buffer_cap|response_buffer_bytes)\b' \
    src crates/*/src crates/*/tests tests; then
    echo "one-path gate: found a deleted batch, diff or residency name" >&2
    exit 1
fi
if grep -rnE -e '--(jobs|save|projector|diff-dtd|diff-root|out-buffer-cap|max-header-bytes)\b' \
    src crates/*/src crates/*/tests; then
    echo "one-path gate: found a retired flag" >&2
    exit 1
fi
if grep -n 'legacy' src/bin/xmlprune.rs; then
    echo "one-path gate: xmlprune grew a legacy path" >&2
    exit 1
fi

leg "one-analysis gate (grep: one name universe, one A_E / T_E, no deleted static API)"
# The grammar's reachability rows are built once, over one universe that
# already holds the document name, and A_E / T_E (`Analyzer::axis` /
# `::test`) are defined once: no conversion between universes may come
# back outside crates/core, no second definition anywhere, and the dead
# static API this gate was born with stays deleted (naming
# `Dtd::doc_name()` is not a conversion and is allowed everywhere).
if grep -rnE 'to_dtd_set|analyzer\(\)\.universe\(\)' src crates/*/src crates/*/tests tests examples \
    | grep -v '^crates/core/src/'; then
    echo "one-analysis gate: found a conversion between name universes" >&2
    exit 1
fi
if [ "$(grep -rlE 'fn (axis|test)\b' src crates/*/src)" != "crates/core/src/analysis.rs" ]; then
    echo "one-analysis gate: A_E / T_E must be defined in crates/core/src/analysis.rs only" >&2
    exit 1
fi
if grep -rnE '\b(chains_from|is_rooted_chain|select_(children|parents|descendants|ancestors)|filter_(tag|text|element|has_attribute)|is_non_recursive|is_parent_unambiguous|disable_trace|set_trace_source|path_count|render_path|simple_path_to_string|is_expr|project_queries|project_approximation(_materialized)?)\b' \
    src crates/*/src crates/*/tests tests examples; then
    echo "one-analysis gate: found a deleted static-analysis name" >&2
    exit 1
fi

leg "one-harness gate (grep: speed is measured by the benchmark/ ledger alone)"
# The stand-alone timing binaries, their median-of-N timer, their env
# knobs, their committed result files and the engine's per-feed stage
# clocks are gone: what they checked is counter-gated tests now, and
# speed is the ledger's. None of it may come back. (`Timer-wheel` and
# `TimerWheel` are the reactor's and stay.)
if grep -rnE '\bTimer\b([^-]|$)|\b(bench_bytes|StageTimings|scan_ns)\b|XPROJ_BENCH_|BENCH_(query|server)' \
    src crates tests; then
    echo "one-harness gate: found a retired timing binary, knob, result file or engine clock" >&2
    exit 1
fi

leg "docs gate (README + DESIGN.md describe the system in <= 1000 lines)"
if [ "$(cat README.md DESIGN.md | wc -l)" -gt 1000 ]; then
    echo "docs gate: README.md + DESIGN.md exceed 1000 lines" >&2
    exit 1
fi

leg "one-protocol gate (grep: sans-I/O machine, no second serving core)"
# `conn::Connection` is the only HTTP implementation, and it stays
# sans-I/O: no socket, clock, thread, channel or reactor type may enter
# conn.rs (its drivers hand it bytes and a `now`). And nothing of the
# deleted blocking core — its flag, its types, its test matrix — may
# come back anywhere in the sources or tests.
if grep -nE 'TcpStream|TcpListener|Instant::now|\.elapsed\(\)|SystemTime|thread::|mpsc|xproj_reactor|AsRawFd' \
    crates/server/src/conn.rs; then
    echo "one-protocol gate: conn.rs reaches for I/O, a clock or a thread" >&2
    exit 1
fi
# Where a job runs is the machine's `Job::bounded()`, in conn.rs: the
# drivers name the type and never a variant (nor, in their docs, a
# path through it), so neither can grow a placement rule of its own.
if grep -n 'Job::' crates/server/src/epoll.rs crates/server/src/portable.rs; then
    echo "one-protocol gate: a driver names a job kind; placement lives in conn.rs" >&2
    exit 1
fi
if grep -rnE 'ServeMode|--threaded|BodyReader|StreamingBody|serve_connection|yield_to_waiters|mode_matrix' \
    src crates/*/src crates/*/tests; then
    echo "one-protocol gate: found a remnant of the blocking serving core" >&2
    exit 1
fi

leg "build (release, workspace, offline, locked)"
cargo build --release --workspace --offline --locked

leg "clippy (workspace, all targets, deny warnings)"
cargo clippy --workspace --all-targets --offline --locked -- -D warnings

leg "test (workspace, offline, locked)"
cargo test -q --workspace --offline --locked

leg "soundness fuzzer smoke (deterministic, 200 cases)"
TESTKIT_FUZZ_CASES=200 cargo test -q --offline --locked \
    -p xml-projection --test fuzz_soundness

leg "independence fuzzer smoke (200 quadruples, differential)"
# Every statically-Independent (DTD, doc, query, update) quadruple must
# answer byte-identically before and after applying the update, for
# XPath and XQuery alike; every MayConflict must carry a witness. Set
# TESTKIT_SEED to replay a failure printed by the test.
TESTKIT_FUZZ_CASES=200 cargo test -q --offline --locked \
    -p xml-projection --test fuzz_independence

leg "rustdoc (workspace, no deps, deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --locked

leg "query-pipeline fuzzer smoke (every-2-chunk-split differential)"
# The one-pass QueryMachine must answer byte-identically to the
# reference evaluator over the *unpruned* tree, at every 2-chunk split
# of the document, in both fast-forward modes: random-DTD documents under
# XPath and XQuery, and the mixed-content family (text runs, comments
# and whitespace between elements; paths to text() and node(), counted
# or positional), where a fallback that joined the text runs pruning
# made adjacent would answer differently.
TESTKIT_FUZZ_CASES=30 cargo test -q --offline --locked \
    -p xml-projection --test query_pipeline

leg "engine smoke (chunked-vs-whole differential + 100-case fuzz, tree-vs-stream validation at 500 cases)"
# The xmark differential: generated auction document streamed at several
# chunk sizes must be byte-identical to the whole-string pruner, with the
# O(depth + max-token) resident-memory bound holding end-to-end. (Whole
# and chunked pruning are one loop, so this byte-for-byte pin is the
# gate; their speed is ledger rows `xmltree.tokenize_ns_per_byte` and
# `engine.prune_ns_per_byte.*`.)
cargo test -q --offline --locked -p xproj-engine \
    --test chunked_equiv xmark_chunked_differential
TESTKIT_FUZZ_CASES=100 cargo test -q --offline --locked -p xproj-engine \
    --test chunked_equiv fuzz_chunked_equals_whole_string_pruning
# `xmlprune validate` streams: the validating pass must accept exactly
# what `dtd::validate` accepts on the tree, indented documents included.
TESTKIT_FUZZ_CASES=500 cargo test -q --offline --locked -p xproj-engine \
    --test validate_equiv

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

leg "analyzer smoke (XMark provenance + retention prediction)"
# The rigorous form: on the generated XMark document, the predicted
# retention must land within 2x of what pruning actually retains, and
# the JSON-lines report must parse record by record.
cargo test -q --offline --locked -p xproj-analyzer --test xmark_smoke
# And the CLI surface: analyze an XMark query against the committed
# auction DTD, then check the JSON report parses and the predicted
# retention sits in a sane band for this very selective query.
./target/release/xmlprune analyze --dtd examples/auction.dtd --root site --json \
    "/site/closed_auctions/closed_auction/annotation/description/text/keyword" \
    > /tmp/xmlprune-analyze.jsonl
python3 - <<'PY'
import json
recs = [json.loads(l) for l in open('/tmp/xmlprune-analyze.jsonl')]
types = {r['type'] for r in recs}
assert {'meta','path','name','dtd','optimality','retention'} <= types, types
ret = next(r for r in recs if r['type'] == 'retention')
assert 0.0 < ret['predicted'] < 0.5, ret
names = [r for r in recs if r['type'] == 'name']
assert names and all(r['chain'][0] == 'site' for r in names), names
print(f"analyzer smoke: {len(names)} provenance records, "
      f"predicted retention {ret['predicted']:.1%}")
PY

leg "server smoke (xmlpruned binary: health, prune round-trip, drain)"
# Spawns the real daemon on an ephemeral port, health-checks it,
# registers a DTD, prunes a document through the HTTP surface via the
# testkit client, then asserts graceful shutdown exits cleanly; and,
# under a soft fd limit of 256, that it raises the limit to fit
# --max-connections and serves 400 connections with no accept stall.
cargo test -q --offline --locked -p xproj-server --test binary_smoke

leg "server integration (sockets, default driver; portable driver cases)"
# One run on the target's driver covers chunked round-trips, 431/413
# (and /v1/dtd's own 64 KiB cap),
# pipelining, mid-body disconnects, structured errors, the 24-case
# HTTP-vs-prune_str and HTTP-vs-reference-evaluator differentials,
# slowloris 408s, slow-reader backpressure, admission, rate limiting,
# accept stalls, lane isolation (a parked executor lane delays no cached
# prune), cold compiles on the loop within the step budget, the loop-job
# budget's overflow and drain-under-load (plus a
# 2-loop leg of the hardest three). The portable driver — what non-Linux targets serve with — is
# driven through Server::serve_portable() for the six things it does
# itself.
cargo test -q --offline --locked -p xproj-server --test integration
cargo test -q --offline --locked -p xproj-server --test portable

leg "connection-machine simulation + adversarial wall (no sockets, 500 cases)"
# The sans-I/O Connection under seeded schedules of read fragmentation,
# partial writes, reordered completions and clock steps: any schedule
# must answer like the trivial one and like the in-process engine, hold
# the configured residency bound, stay live, and fire timers at exact
# instants; random and mutated HTTP bytes must never panic it. A
# failure prints the TESTKIT_SEED that replays it.
TESTKIT_FUZZ_CASES=500 cargo test -q --release --offline --locked \
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
