#!/usr/bin/env bash
# Tier-1 verification: build, tests, and the panic-freedom lint gate.
#
# The clippy step enforces the workspace lint gate: every workspace
# crate denies unwrap_used / expect_used / panic / indexing_slicing
# outside test code (see [workspace.lints.clippy] in Cargo.toml), and
# scripts/check_unsafe.sh checks that every crate carries
# #![forbid(unsafe_code)] with no unsafe blocks anywhere.
#
# The GBJ_TEST_THREADS=4 pass re-runs the whole suite with the engine
# defaulting to 4 worker threads, pushing every engine-level test
# through the parallel hash join / hash aggregate operators — the
# observability suites (estimator_accuracy, explain_golden,
# parallel_differential) run in both passes, so metrics counters and
# EXPLAIN ANALYZE output are checked serial and parallel.
#
# The GBJ_TEST_VECTORIZED=1 pass re-runs the whole suite with the
# chunk pipeline on by default, so every engine-level test doubles
# as a row-vs-columnar differential; the combined
# GBJ_TEST_VECTORIZED=1 GBJ_TEST_THREADS=4 pass checks that the
# pipeline is thread-count invariant and that plans it refuses run the
# parallel row operators.
#
# The GBJ_TEST_SHARDS=4 pass re-runs the whole suite on the chunk
# pipeline over 4 parts (every plan inside the strict gate executes
# gbj_plan::distribute's movements as breakers between the parts), so
# every engine-level test doubles as a sharded-vs-oracle differential;
# the GBJ_TEST_SHARDS=4 x GBJ_TEST_THREADS={1,4} passes put the scan
# split and the parts' worker pool under the batch-boundary, fault and
# thread differentials, where a scheduling dependence would show.
set -euo pipefail
cd "$(dirname "$0")/.."

# gbj-exec takes its configuration from ExecOptions only; the one place
# that reads the environment is EngineOptions::from_env.
if grep -rn "std::env" crates/exec/src; then
  echo "verify: gbj-exec must not read the environment" >&2
  exit 1
fi
# One cost model, one estimate tree, one partition tracker: the twins
# this gate names were deleted and must not grow back.
if grep -rnE "PlanEstimate|PlanCost|enum Part\b|fn equi_key_ords|fn remap_partitioning" crates src tests; then
  echo "verify: a second cost model / estimate tree / partition tracker reappeared" >&2
  exit 1
fi
# Two execution paths, not three: the row-form sharded interpreter,
# its storage view and its ExecPath variants were deleted and must not
# grow back beside the pipeline.
if grep -rnE "mod shard\b|fn run_sharded|ShardedTable|ExecPath::(Sharded|Batch)" crates src tests examples; then
  echo "verify: a third execution path reappeared beside the row engine and the pipeline" >&2
  exit 1
fi
# One source of observed statistics: the estimator, the clamp and the
# analyzer read each table's TableStats (gbj_storage::stats) — the
# executor and storage are the only readers of rows.
if grep -rn "value_rows" crates/engine/src crates/optimizer/src crates/analyze/src; then
  echo "verify: a row scan reappeared outside the executor and storage" >&2
  exit 1
fi
# One physical layout: tables are column-major blocks that scans hand
# out; the row vector, the per-cursor dictionary prescan and the
# per-scan transpose were deleted and must not grow back beside them.
if grep -rnE "Arc<Vec<Row>>|fn raw_rows|fn ensure_dicts|fn build_column|ColumnDict" crates src; then
  echo "verify: a second table layout / a per-scan transpose reappeared" >&2
  exit 1
fi
# One key path: how row i of a batch's key columns is keyed is decided
# in gbj-exec's key view, under the group table, the join index,
# DISTINCT and the exchange alike; the three copies of that decision
# and the per-row wire pricing were deleted and must not grow back.
if grep -rnE "fn key_at|enum JoinIndex|enum Keyer|fn wire_row_bytes" crates src; then
  echo "verify: a second key path / a per-row wire price reappeared beside the key view" >&2
  exit 1
fi
# One predicate evaluator on the pipeline: predicates are lowered to
# two-valued masks where the pipeline binds them (gbj_expr::lower,
# gbj_exec::vectorized); the per-row truth vectors, their Boolean
# reification and the gathered copy a sparse filter evaluated on were
# deleted and must not grow back beside the mask kernels.
if grep -rnE "Vec<Truth>|fn eval_truth_vec|fn truths_to_bool_column|fn live_columns" crates/exec/src; then
  echo "verify: a three-valued evaluator reappeared on the chunk pipeline" >&2
  exit 1
fi
# A write keeps what it did not change: the key index is sets of
# bounded size and a table's statistics are a fold over its blocks, so
# nothing on the append path grows with the table. The function that
# threw a table's statistics away on every write was deleted and must
# not grow back.
if grep -n "fn drop_stats" crates/storage/src/table.rs; then
  echo "verify: a write drops the table's statistics again" >&2
  exit 1
fi
cargo build --release
# The four workspace passes below each include the two-valued suites —
# gbj-expr's tests/lowering_exhaustive.rs (lower_floor / lower_ceil
# against eval_truth on every row of a small-scope domain) and the mask
# kernel / columnar drain cases of tests/columnar_differential.rs (word
# and block boundaries, incoming selections, every state vector against
# the row oracle at shards 1 / 4 x threads 1 / 2) — the typed-key suites —
# tests/typed_keys_differential.rs (key kinds, error order, float sums
# and zero budgets against the row oracle across shards x threads x
# combiner) and gbj-exec's key / aggregate / exchange / guard unit
# suites (typed placement and wire bytes against GroupKey and
# row_bytes, the typed fold and merge against the Accumulator fold,
# tick_rows against per-row ticks) — and gbj-storage's layout and
# write-path suites — layout_differential (column-major storage against
# a row model), block_sharing (blocks and key sets shared by address,
# copied exactly where a reader could see a write; its reader count
# follows GBJ_TEST_THREADS), key_index_differential (every INSERT /
# DELETE / UPDATE / foreign-key decision and error text against a scan,
# forks written on both sides) and stats_fold (statistics a function of
# the rows across bulk loads, single-row inserts, forks, DELETE and
# UPDATE at every block edge; rows read and index entries copied per
# write pinned equal at 4 and 64 blocks).
cargo test -q --workspace
GBJ_TEST_THREADS=4 cargo test -q --workspace
GBJ_TEST_VECTORIZED=1 cargo test -q --workspace
GBJ_TEST_SHARDS=4 cargo test -q --workspace
# Explicit 1- and 4-thread passes over the observability suites (cheap,
# and keeps them covered even if the workspace matrix above changes).
for t in 1 4; do
  GBJ_TEST_THREADS=$t cargo test -q \
    --test estimator_accuracy --test explain_golden --test parallel_differential
done
# Chunk pipeline at threads=4 (serial breakers, same profile), on the
# suites that fingerprint it.
GBJ_TEST_VECTORIZED=1 GBJ_TEST_THREADS=4 cargo test -q \
  --test parallel_differential --test equivalence_prop --test explain_golden
# Batch-native pipeline: the batch-boundary differential (batch sizes
# 1/2/7/default x seeded faults on NULL-heavy / empty / all-NULL data)
# with the vectorized path forced on, at both thread settings.
for t in 1 4; do
  GBJ_TEST_THREADS=$t GBJ_TEST_VECTORIZED=1 cargo test -q --test columnar_differential
done
# Serving layer: the chaos differential (sessions, snapshot reads,
# deadlines, admission control) at every thread x vectorized
# combination — committed results must be byte-identical to the serial
# replay in all four configurations.
for t in 1 4; do
  for v in 0 1; do
    GBJ_TEST_THREADS=$t GBJ_TEST_VECTORIZED=$v cargo test -q --test serving_differential
  done
done
# Shared table statistics under the server: one fold per table version
# however many snapshots and sessions ask, and the plan-cache key — with
# the parallel operators under the sessions.
GBJ_TEST_THREADS=4 cargo test -q -p gbj-server --test table_stats
# Plan-choice differential: eager/lazy byte-identity, X-series extreme
# choices, and adaptive-feedback convergence — at every thread x
# vectorized combination (the cost decision must be engine-invariant).
for t in 1 4; do
  for v in 0 1; do
    GBJ_TEST_THREADS=$t GBJ_TEST_VECTORIZED=$v cargo test -q --test cost_model_differential
  done
done
# Sharded-execution differential: byte-identity of multi-shard runs
# against the single-shard oracle (plus combiner pushdown and the
# shipped-rows prediction audit) with the engine defaulting to 1 and
# 4 shards — the suite also sweeps 2/4/8 shards internally.
for s in 1 4; do
  GBJ_TEST_SHARDS=$s cargo test -q --test sharding_differential
done
# Parts x worker pool: batch sizes 1/2/7 x seeded faults now meet the
# scan split, at both thread settings — and EXPLAIN ANALYZE stays
# reproducible there (at 4 parts x 4 threads `peak memory:` follows the
# scheduler and is normalized with the timings; everything else, and
# the line itself at one thread, is asserted).
for t in 1 4; do
  GBJ_TEST_SHARDS=4 GBJ_TEST_THREADS=$t cargo test -q \
    --test columnar_differential --test fault_injection --test parallel_differential \
    --test explain_golden
done
# Every bench baseline the smokes below compare against must be
# committed; fail fast with a recipe rather than deep in a smoke run.
for b in BENCH_costmodel.json BENCH_serving.json BENCH_vectorized.json BENCH_sharding.json; do
  if [[ ! -f "$b" ]]; then
    bin="${b#BENCH_}"; bin="${bin%.json}_sweep"
    [[ "$bin" == "serving_sweep" ]] && bin="serve_sweep"
    echo "verify: missing committed baseline $b —" \
      "regenerate with: cargo run --release -p gbj-bench --bin $bin > $b" >&2
    exit 1
  fi
done
# Cost-model sweep smoke at CI size, compared (advisory) against the
# committed BENCH_costmodel.json baseline; parse failures are hard.
GBJ_BENCH_SMALL=1 cargo run --release -q -p gbj-bench --bin costmodel_sweep > /tmp/gbj_costmodel.json
scripts/bench_check.sh /tmp/gbj_costmodel.json BENCH_costmodel.json
# Serving sweep smoke at CI size, compared (advisory) against the
# committed BENCH_serving.json baseline; parse failures are hard.
GBJ_BENCH_SMALL=1 cargo run --release -q -p gbj-bench --bin serve_sweep > /tmp/gbj_serve_sweep.txt
sed -n '/^\[$/,/^\]$/p' /tmp/gbj_serve_sweep.txt > /tmp/gbj_serving.json
scripts/bench_check.sh /tmp/gbj_serving.json BENCH_serving.json
# Sharding sweep at full size (sub-second; the shipped-byte counters
# are deterministic but not scale-stable), compared against the
# committed BENCH_sharding.json baseline.
cargo run --release -q -p gbj-bench --bin sharding_sweep > /tmp/gbj_sharding.json
scripts/bench_check.sh /tmp/gbj_sharding.json BENCH_sharding.json
# Smoke the estimate-vs-actual audit sweep (JSON to stdout).
cargo run --release -q -p gbj-bench --bin cardinality_audit > /dev/null
# Smoke the row-vs-vectorized sweep at CI size; it self-checks that
# the selection vectors and end-to-end results are byte-identical.
GBJ_BENCH_SMALL=1 cargo run --release -q -p gbj-bench --bin vectorized_sweep > /dev/null
# Static analyzer over the SQL corpus: the paper examples must lint
# with zero diagnostics; the counterexamples must yield exactly the
# documented refusal / NULL-semantics codes.
cargo run --release -q --bin gbj-lint -- corpus/paper_examples.sql | tee /tmp/gbj_lint_valid.txt
if grep -q 'warning\[\|error\[' /tmp/gbj_lint_valid.txt; then
  echo "verify: paper examples must lint clean" >&2
  exit 1
fi
cargo run --release -q --bin gbj-lint -- --codes corpus/counterexamples.sql \
  | diff <(printf 'GBJ202\nGBJ203\nGBJ206\nGBJ301\nGBJ303\n') -
# Domain-analysis corpus: each query trips exactly one GBJ6xx proof
# diagnostic from the range/NULL-ness/NDV pass, in file order.
cargo run --release -q --bin gbj-lint -- --codes corpus/domain_counterexamples.sql \
  | diff <(printf 'GBJ601\nGBJ602\nGBJ603\nGBJ604\nGBJ605\n') -
# The benchmark harness is a separate package that builds EngineOptions
# / ExecOptions / ServerConfig field by field against this workspace's
# public API: build it, run its unit tests and its smoke run, so an API
# break fails here and not in the benchmark pipeline.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --release --offline -q --manifest-path benchmark/Cargo.toml
cargo run --release --offline -q --manifest-path benchmark/Cargo.toml -- run --smoke > /dev/null
# Unsafe-code gate: every crate forbids unsafe, no unsafe blocks.
scripts/check_unsafe.sh
cargo clippy --all-targets
echo "verify: OK"
