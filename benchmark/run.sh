#!/usr/bin/env bash
# The one command of the performance ledger: builds the daemon from the
# root workspace and the harness from this one, then runs the harness
# against the freshly built `xmlpruned`. See benchmark/README.md.
#
#   benchmark/run.sh                      # every workload, 30 s each
#   benchmark/run.sh --seconds 2          # smoke
#   benchmark/run.sh --trace              # per-layer numbers + out/trace.json
#   benchmark/run.sh --repeat 10          # run-to-run spread and first-half vs second-half medians next to each bound
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1   # driver form
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"

# One target directory for both workspaces: the driver's, or the root's.
TARGET="${CARGO_TARGET_DIR:-target}"
case "$TARGET" in
    /*) ;;
    *) TARGET="$ROOT/$TARGET" ;;
esac
export CARGO_TARGET_DIR="$TARGET"

if [ ! -f Cargo.toml ] || [ ! -d crates/server ]; then
    echo "run.sh: $ROOT is not the repo: the benchmark builds xmlpruned from the workspace it sits in" >&2
    exit 1
fi

# Build output goes to stderr: stdout carries only the harness's report.
cargo build --release --offline --locked --manifest-path Cargo.toml -p xproj-server --bin xmlpruned >&2
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml >&2

exec "$TARGET/release/xproj-ledger" --daemon "$TARGET/release/xmlpruned" "$@"
