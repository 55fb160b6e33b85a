#!/usr/bin/env bash
# Hermetic CI: everything here runs with no registry access (the proptest /
# criterion suites are feature-gated out; see DESIGN.md §9).
set -euo pipefail
cd "$(dirname "$0")"

echo "== fmt =="
cargo fmt --all -- --check

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== build (release) =="
cargo build --workspace --release

echo "== test =="
cargo test --workspace -q

echo "== exact-engine oracle: full sweeps (release) =="
# Tier-1 runs tests/oracle.rs on a slice (special values + 50 random-bit
# doubles); the 800-value sweeps behind #[ignore] run here.
cargo test --release -q --test oracle -- --ignored

echo "== allocation regression (release) =="
cargo test --release -q --test alloc_count

echo "== batch parity (release) =="
cargo test --release -q --test batch_parity

echo "== fast path: parity tests (release) =="
# Byte-for-byte parity of the Schubfach fast tier against the exact engine:
# the pinned/sampled/stratified/half-precision suites, plus the 10M-sample
# sweep (ignored by default — it needs release-mode speed).
cargo test --release -q --test fastpath_parity
cargo test --release -q --test fastpath_parity -- --ignored ten_million

echo "== reader: parse parity + round-trip batteries (release) =="
# The Eisel–Lemire tiers against the exact big-integer oracle and std:
# generated literals, adversarial halfway corpus, the sampled 10M-value
# round trip, the fast-grammar edge cases, and the byte scanner's grammar
# at its 8-byte seams (plus the every-string sweep up to 7 bytes, ignored
# by default — it needs release-mode speed).
cargo test --release -q --test reader_differential
cargo test --release -q --test reader_adversarial
cargo test --release -q --test reader_roundtrip
cargo test --release -q --test reader_edgecases
cargo test --release -q --test reader_scan_grammar
cargo test --release -q --test reader_scan_grammar -- --ignored

echo "== telemetry build + tests (--features telemetry) =="
# The instrumented configuration is a separate feature unification: build it,
# run the whole suite under it (including the exact-count tests/telemetry.rs
# target, which only exists with the feature on), and run the telemetry
# crate's own disabled-mode tests explicitly.
cargo build --workspace --release --features telemetry
cargo test --workspace -q --features telemetry
cargo test -q -p fpp-telemetry

echo "== telemetry-off zero-cost guard (release) =="
# With the feature off every record_* call compiles to a no-op: the counting
# allocator must see zero steady-state allocations, same as the seed.
cargo test --release -q --test alloc_count

echo "== repository benchmark: traced smoke on the gated workloads (release) =="
# The ledger (ledger/, its own package outside the workspace) checks every
# value against a std-only oracle and reports the verdict as "correct" in the
# JSON on its last stdout line; a traced run still exits 0 on a wrong value,
# so the step fails unless that line reads "correct":true. Its records land
# in target/ledger/smoke-*.json.
for w in shortest_uniform decimal_telemetry; do
  out=$(cargo run --quiet --offline --release --manifest-path ledger/Cargo.toml -- \
    --workload "$w" --smoke --seconds 2 --trace 1)
  printf '%s\n' "$out"
  tail -n 1 <<<"$out" | grep -q '"correct":true' || {
    echo "ledger oracle failed on $w"
    exit 1
  }
done

echo "CI OK"
