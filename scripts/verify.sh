#!/usr/bin/env bash
# Tier-1 verification: build, tests, and the panic-freedom lint gate.
#
# The clippy step enforces the workspace lint gate: every workspace
# crate denies unwrap_used / expect_used / panic / indexing_slicing
# outside test code (see [workspace.lints.clippy] in Cargo.toml), and
# scripts/check_unsafe.sh checks that every crate carries
# #![forbid(unsafe_code)] with no unsafe blocks anywhere.
#
# The test matrix is four cells, each the whole workspace suite:
#
#   1. plain — the product: ExecOptions::default() is the chunk pipeline
#      at one part, inline on the calling thread. Every engine-level
#      test runs it, and every differential compares it with the oracle
#      (tests/common: `oracle_exec_options` / `run_oracle` /
#      `oracle_query` build the reference side explicitly and assert
#      `path: row`, so no suite can compare the pipeline with itself).
#   2. GBJ_TEST_VECTORIZED=0 — the oracle: the serial row engine under
#      every engine-level test, whatever threads and shards say; the
#      differentials' pipeline sides set `vectorized` themselves, so
#      they still compare the two paths.
#   3. GBJ_TEST_SHARDS=4 GBJ_TEST_THREADS=1 — the pipeline over four
#      parts (every plan inside the strict gate executes
#      gbj_plan::distribute's movements as breakers between the parts),
#      the parts run one after another on the calling thread.
#   4. GBJ_TEST_SHARDS=4 GBJ_TEST_THREADS=4 — the same four parts on a
#      team of four, where a scheduling dependence would show (at 4
#      parts x 4 threads `peak memory:` follows the scheduler and
#      explain_golden normalizes it; everything else is asserted).
#
# GBJ_TEST_THREADS alone is not a cell: the row engine is serial and one
# part runs inline, so the thread count is a no-op below two parts —
# pinned by parallel_differential's threads_change_nothing_at_one_part,
# which also sweeps parts {1,2,4} x threads {1,2,4,8} against the
# oracle in every cell.
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
# One parallel implementation: the thread team under the pipeline's
# parts. The row engine's own morsel operators (and the whole-table
# merge only they called) were deleted and must not grow back beside
# it; the oracle is serial.
if grep -rnE "parallel_hash_(join|aggregate)|ParallelHash(Join|Aggregate)" crates src tests examples \
  || grep -rnE "fn absorb\(" crates/exec/src; then
  echo "verify: a second parallel implementation reappeared under the row engine" >&2
  exit 1
fi
# One type per column: a declared schema rules out a type-mixed column,
# so there is no vector variant for one.
if grep -rn "ColumnVector::Mixed" crates src tests examples; then
  echo "verify: the type-mixed column vector reappeared" >&2
  exit 1
fi
# One algorithm per operator: a join is a hash join on its equi keys
# (nested loops without one) and a group-by is a hash aggregate. The
# options that picked another algorithm, the sort-merge join and sort
# aggregate only they reached, and the refusal they caused were
# deleted and must not grow back; nor must the criterion sources that
# cargo never built.
if grep -rnE "JoinAlgo|AggAlgo|fn sort_merge_join|fn sort_aggregate|NonHashAlgorithm|SortMergeJoin|SortAggregate" crates src tests examples; then
  echo "verify: a second join or aggregation algorithm reappeared" >&2
  exit 1
fi
if [[ -e crates/bench/benches ]]; then
  echo "verify: crates/bench/benches reappeared; benches run as report subcommands" >&2
  exit 1
fi
# One timing harness: gbjbench (benchmark/) times the workloads, and
# every experiment table is a `report` subcommand. The sweep binaries,
# their committed baselines, the advisory checker that never failed and
# the size knobs they read were deleted and must not grow back; a
# number they held is an exact assertion in a test now.
if [[ -n "$(find . \( -name target -o -name .git \) -prune -o -name 'BENCH_*.json' -print)" ]] \
  || [[ -e scripts/bench_check.sh ]] \
  || grep -rn "GBJ_BENCH[_]" crates src scripts .github \
  || (( $(grep -c '^\[\[bin\]\]' crates/bench/Cargo.toml) > 1 )) \
  || [[ "$(ls crates/bench/src/bin)" != "report.rs" ]]; then
  echo "verify: a second timing harness reappeared beside report and gbjbench" >&2
  exit 1
fi
# One two-valued logic: the range pass, the execution gate and the mask
# kernels all read a predicate through its lowering (gbj_expr::lower).
# The analyzer's Kleene truth sets and operator flip, the hand-written
# gate that mirrored the lowering's domain, the pruning side-table
# nothing read and the physical-plan pass nothing called were deleted
# and must not grow back.
if grep -rnE "TruthSet|PruningFact|fn vectorizable|fn truth_set_of|fn flip_op|exec_pass|check_execution" crates src tests examples; then
  echo "verify: a second three-valued logic / gate / side-table reappeared beside the lowering" >&2
  exit 1
fi
# EXPLAIN computes its `domains:` line when it renders; a QueryReport
# field for it would compute it on every query.
# That the audit re-derives nothing is pinned by the oracle test
# estimator_accuracy::audited_estimates_equal_a_fresh_estimate_of_the_plan_that_ran.
if grep -rnE "pub (domains|pruning):" crates/engine/src; then
  echo "verify: an EXPLAIN-only annotation is a QueryReport field again" >&2
  exit 1
fi
# One placement hash: rows are routed by gbj_types::stream_hash, the
# fixed-seed fold the key index and the sketches hash with. std's
# DefaultHasher is not fixed across releases, and shipped bytes are
# pinned exactly, so neither it nor the wrapper that routed with it may
# come back (value::tests::placement_is_pinned pins the function).
if grep -rnE "DefaultHasher|ShardHasher" crates src tests examples; then
  echo "verify: a second placement hash reappeared beside stream_hash" >&2
  exit 1
fi
# One scan split: over several parts a scan hands each part dense
# batches of its own rows, a sealed block's split made once and kept by
# storage beside the block (gbj_storage::ScanSplit, through
# ScanCursor::next_split). The per-read routing it replaced — a
# destination vector per batch and `deal`'s selection per part, every
# block hashed again on every read — must not grow back in the
# pipeline's Scan arm, and `deal` stays the exchange's own.
scan_arm=$(sed -n '/LogicalPlan::Scan {/,/LogicalPlan::Filter {/p' crates/exec/src/pipeline.rs)
if ! grep -q "next_split" <<<"$scan_arm" \
  || grep -nE "deal\(|KeyView|\.shards\(|place::|% n\b|ordinal" <<<"$scan_arm" \
  || grep -rnE "\bdeal\(" crates/exec/src | grep -v "^crates/exec/src/exchange.rs:"; then
  echo "verify: the scan routes rows per read again instead of reading storage's split" >&2
  exit 1
fi
# One lowering: QueryBlock::lower builds a block's plan in its final
# shape in one pass. The rule driver, its trait and pass bound, and the
# four rules it ran to a fixpoint over the literal σ(R1 × R2 × …) were
# deleted and must not grow back (tests/lowering_golden.rs pins the
# trees they converged to).
if grep -rnE "OptimizerRule|Optimizer::standard|max_passes|struct (MergeFilters|PredicatePushdown|ColumnPruning|JoinOrdering)" crates src tests examples; then
  echo "verify: a rewrite-rule driver reappeared beside QueryBlock::lower" >&2
  exit 1
fi
# One TestFD run per rewrite: an eager rewrite's FD1/FD2 certificate is
# the trace of the TestFD run that proved it. The replay that ran the
# same closure again, the copy of the planner's constraint assembly it
# ran on, and the diagnostic it alone could raise were deleted and must
# not grow back (ROADMAP item 1(2)'s judge is the independent check).
if grep -rnE "FdCertificate|replay_constraints|MissingCertificate|GBJ201" crates src tests examples; then
  echo "verify: a second TestFD run / certificate type reappeared beside the planner's trace" >&2
  exit 1
fi
cargo build --release
# The four workspace passes below each include the two-valued suites —
# gbj-expr's tests/lowering_exhaustive.rs (lower_floor / lower_ceil
# against eval_truth on every row of a small-scope domain),
# tests/range_soundness.rs (every fact the range pass reads off the
# lowering, held against the rows that ran over a small scope) and the mask
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
GBJ_TEST_VECTORIZED=0 cargo test -q --workspace
for t in 1 4; do
  GBJ_TEST_SHARDS=4 GBJ_TEST_THREADS=$t cargo test -q --workspace
done
# Every experiment table, end to end: each subcommand asserts what it
# reproduces (plans agree, X15's selection vectors match the row
# engine) and a failure exits non-zero.
cargo run --release -q -p gbj-bench --bin report > /dev/null
# Static analyzer over the SQL corpus: the paper examples must lint
# with zero diagnostics; the counterexamples must yield exactly the
# documented refusal / NULL-semantics codes.
cargo run --release -q --bin gbj-lint -- corpus/paper_examples.sql | tee /tmp/gbj_lint_valid.txt
if grep -q 'warning\[\|error\[' /tmp/gbj_lint_valid.txt; then
  echo "verify: paper examples must lint clean" >&2
  exit 1
fi
cargo run --release -q --bin gbj-lint -- --codes corpus/counterexamples.sql \
  | diff <(printf 'GBJ202\nGBJ203\nGBJ206\nGBJ202\nGBJ203\nGBJ202\nGBJ202\nGBJ202\nGBJ301\nGBJ303\n') -
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
