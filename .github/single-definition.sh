#!/usr/bin/env bash
# Fails if the duplicates PRs 13, 19 and 20 removed come back: the envelope,
# the accept loop, the supervised restart, the CLI's construction path and
# the key -> shard mix each have exactly one definition under crates/*/src,
# and `scd-benchmark` is the only thing that measures speed. Since PR 21 the
# varint helpers of the packed sketch body are held to the same rule. So are
# the queues: std's `sync_channel` is the only one, a stream starts one way,
# and the aggregator waits on its queue, not on a nap. And the packed body
# has one walker, shared by decode, the aggregator's receipt check and its
# COMBINE; a node resends on proof of loss, not on staleness. A hash family
# is built in one place, the `HashRows::shared` registry, so a process
# holds one copy of each; and its tables hold 32-bit entries, gathered
# eight keys at a time, never 64-bit ones. The detector ranks only what is
# read: `IntervalReport::rank_errors` is the one full-list sort by rank
# order, so the key scan (`detect`) sorts no full list. And the shard merge
# sweeps the whole table in one place, the dense branch of `merge_shards`;
# every other close walks only the lines its interval wrote. The grid search
# scores candidates from observed sketches, so it names no detector type,
# and one walker narrows every multi-pass grid; the §5 energy figures read
# that one objective and one per-flow energy, and run no detector. The
# close publishes through one step, whose archive push has one caller, and
# the serving plane copies no fat table. Each elementwise sketch sweep is its
# scalar loop compiled for AVX2, so no float arithmetic intrinsic is written
# by hand and no kernel enables `fma`, which would let LLVM fuse and move bits.
# An ingest half has one way in, `push_slice`: no per-record `push` on the
# engine, its ingest half or an ingest node, and `EngineConfig` has no
# batching knob; the net plane has no frame nothing sends. The key log is
# the fold's combiner: the engine routes a key to its shard in one place,
# the combiner's, so `push_slice` and the parallel producers share it and no
# second per-record routing loop exists, and the router keeps no per-record
# key set. An archive epoch packs through one routine and merges packed
# through one, whichever element type (fat `f64`, slim `f32`) it holds.
# A forecast model states its steady-state step as one per-cell function
# and runs it through one executor, `step_cells`, which walks every table
# once in one per-cell loop, `lockstep` (a window model calls its
# slice-level `walk` block by block): no model walks tiles, keeps tile
# scratch or chains slice kernels. The evaluation layer is the experiment
# harness's, not the product's: the baselines, the per-flow oracle, the §5
# metrics and the random comparator are each defined once, under
# crates/bench/src, and scd-sketch and scd-core hold none of them. The
# harness reads its ledger with the benchmark's JSON reader; no crate
# defines a second one. A forecasting model is one concrete type, its spec
# and its state: no forecaster trait or trait object, and no model keeps a
# second copy of its state to resume from or snapshot into.
# Non-test source is `nontest`'s (`.github/nontest.sh`).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
source .github/nontest.sh

fail=0
check() { # check COUNT WHAT HITS: HITS must hold exactly COUNT non-empty lines
  local n; n=$(printf '%s' "$3" | grep -c . || true)
  if [ "$n" -ne "$1" ]; then
    echo "single-definition: expected $1 $2, found $n:"; printf '%s\n' "$3" | sed 's/^/  /'
    fail=1
  fi
}
expect() { # expect COUNT PATTERN WHAT, over non-test source
  check "$1" "$3" "$(nontest | grep -E -- "$2" || true)"
}

expect 1 '\.accept\(\)'                         'TcpListener accept call site(s)'
expect 1 'fn read_exact_or_closed'              'frame stream read loop(s)'
expect 1 'fn footer_mismatch'                   'CRC footer comparison(s)'
expect 1 'File::open\(parent\)'                 'directory fsync(s) (atomic write routine)'
expect 0 'b"SCD(SKT01|TRC01|CKPT1)"'            'retired magic literal(s) in non-test source'
# One detect stage, one supervisor, one construction path (PR 19). Patterns
# that start with `^crates/` match on the FILE:LINE: prefix too.
expect 1 '^crates/(core|net)/src/.*[^`]catch_unwind\('   'catch_unwind site(s) around a detector'
expect 1 'Checkpoint::load\('                   'checkpoint load-compare-restore routine(s)'
expect 1 ':[0-9]+: *(let [a-z_]+ = )?Checkpoint \{$' 'place(s) a Checkpoint is assembled'
expect 1 'pub struct Checkpoint(Policy|Every)'  'checkpoint-policy type(s)'
expect 1 '^crates/cli/src/.*ShardedEngine::new\('         'engine construction(s) in the CLI'
expect 1 '^crates/cli/src/.*[^>] DetectorConfig \{'       'DetectorConfig literal(s) in the CLI'
expect 0 '^crates/(cli|net)/src/.*SketchChangeDetector::new\(' 'bare detector(s) outside scd-core'
expect 0 '^crates/net/src/.*(DetectorConfig \{|ModelSpec::)'   'detector configuration(s) invented for ingest'

# One bench stack (PR 20): no bench target, no recorded microbenchmark
# artifact, no env knob selecting one; one key -> shard mix.
expect 1 'fn shard_of'                           'key-to-shard mix(es)'
check 0 '[[bench]] target(s)'              "$(git grep -nE '^\[\[bench\]\]' -- 'crates/*/Cargo.toml' || true)"
check 0 'tracked BENCH_*.json artifact(s)' "$(git ls-files -- 'BENCH_*.json')"
check 0 'bench env knob reader(s)'         "$(git grep -n 'SCD_BENCH[_]' -- '*.rs' '*.yml' '*.sh' || true)"

# One LEB128 writer, one reader, one zigzag pair (PR 21): in scd-hash::byteio
# beside put_u64, not one copy per crate that grows a compact format.
expect 1 'fn [a-z_]*leb128[a-z_]*\(&mut self'     'LEB128 reader(s)'
expect 1 'fn put_[a-z_]*leb128'                  'LEB128 writer(s)'
expect 2 'fn (un)?zigzag'                        'zigzag helper(s) (one each way)'
expect 1 '>>= 7'                                 'varint shift loop(s)'
expect 2 'cur\.uleb128\(\)\?'                   'LEB128 read(s) of the one packed-body walker (gap, value)'

# One queue type, one way to start a stream, no nap in the aggregator.
expect 0 'pub fn bounded[<(]'                   'vendored bounded-channel constructor(s)'
expect 0 'fn spawn_supervised'                   'second stream entry point(s)'
expect 0 '^crates/net/src/aggregator\.rs:.*thread::sleep' 'sleep(s) in the aggregator main loop'
expect 0 'fn resend_stale'                       'resend(s) of a frame for being unacknowledged a while'

# One hash family per process, at the width its buckets use.
expect 1 'HashRows::new\('                     'hash family build(s) outside the HashRows::shared registry'
expect 0 '_mm256_i32gather_epi64'               '64-bit tabulation-entry gather(s)'

# One full-list ranking, and it is not on the detection path.
expect 1 'fn rank_errors'                        'full-list ranking method(s)'
sorts=$(nontest | awk 'match($0, /fn [a-z0-9_]+/) { name = substr($0, RSTART + 3, RLENGTH - 3) }
  /errors\.sort[a-z_]*\(.*report_order/ { print name ": " $0 }')
check 1 'full-list sort(s) by report_order' "$sorts"
check 0 'full-list sort(s) by report_order outside rank_errors' \
  "$(printf '%s\n' "$sorts" | grep -v '^rank_errors: ' || true)"

# One full merge-and-clear sweep, and only where `merge_shards` chooses it.
sweeps=$(nontest | awk 'match($0, /fn [a-z0-9_]+/) { name = substr($0, RSTART + 3, RLENGTH - 3) }
  /\.merge_draining\(/ { print name ": " $0 }')
check 1 'full merge-and-clear sweep call site(s)' "$sweeps"
check 0 'full merge-and-clear sweep call site(s) outside merge_shards' \
  "$(printf '%s\n' "$sweeps" | grep -v '^merge_shards: ' || true)"

# One objective over observed sketches, one multi-pass grid walker.
expect 0 '^crates/core/src/gridsearch\.rs:.*(SketchChangeDetector|DetectorConfig|KeyStrategy)' \
  'detector type(s) in the grid search'
expect 1 'half_range /='                         'multi-pass grid walker(s) (per-pass range narrowing)'

# The §5 energy figures score specs with that objective: the CDF figures
# run no detector, and each energy has one definition.
expect 0 '^crates/bench/src/experiments/cdf\.rs:.*(SketchChangeDetector|run_sketch)' \
  'detector run(s) in the CDF figures'
expect 1 'fn perflow_energy'                     'per-flow total-energy routine(s)'
expect 1 'fn estimated_total_energy'             'sketch-energy objective(s)'

# One publish step: the engine's archive push has one caller (the inline
# stage and the pipelined publish lane share it), and the serving plane
# projects the error sketch instead of copying it.
check 1 'call site(s) of archive_error in scd-core' \
  "$(nontest | grep -E '^crates/core/src/.*archive_error\(' | grep -v 'fn archive_error' || true)"
expect 0 '^crates/serve/src/.*assign_from\('    'fat-table copy(ies) in the serving plane'

# One body per elementwise sweep: the scalar loop, compiled for AVX2 with
# nothing else enabled. Gathers and the median network's min/max stay
# intrinsics; arithmetic does not.
expect 0 '_mm256_(add|sub|mul|div)_p[sd]'       'hand-written float arithmetic intrinsic(s)'
expect 0 'target_feature\(enable *= *"[^"]*fma' 'target_feature list(s) enabling fma'

# One way into an ingest half, no batching knob, no frame nothing sends.
expect 0 '^crates/(core/src/engine/|net/src/sender\.rs).*pub fn push\(' \
  'per-record push entry point(s) into an ingest half'
expect 0 '^crates/net/src/.*Heartbeat'           'Heartbeat frame(s) in the net plane'
check 0 'batch or queue_capacity field(s) in EngineConfig' \
  "$(nontest | awk '/pub struct EngineConfig \{/ { inside = 1; next } inside && /:[0-9]+:\}$/ { inside = 0 }
      inside && /:[0-9]+: *pub (batch|queue_capacity):/' || true)"

# One router: the combiner's, with no per-record key set beside it.
expect 1 '^crates/core/src/engine/.*shard_of\('  'shard_of call site(s) in the engine (the combiner routes)'
expect 0 '^crates/core/src/engine/route\.rs:.*HashSet' 'HashSet(s) in the engine router'

# One pack routine and one packed merge: scd-archive's epoch store, shared
# by the engine's fat archive and the serving replica's slim one.
expect 1 'fn pack_cells'                         'archive pack routine(s)'
expect 1 'fn merge_cells'                        'archive packed-merge routine(s)'

# One forecast step executor; no tile walk, tile scratch or slice-kernel
# chain in a model.
expect 1 'fn step_cells[<(]'                     'forecast step executor(s)'
expect 1 'fn lockstep[<(]'                       'forecast per-cell loop(s)'
expect 0 '^crates/forecast/src/.*(sweep_tiles|TileScratch|simd::(add_scaled|axpy|sub|scale)\b)' \
  'tile walk(s), tile scratch or slice-kernel call(s) in the forecast models'

# The evaluation layer lives in scd-bench, once.
expect 0 '^crates/(sketch|core)/src/.*(struct (CountMinSketch|CountSketch|MisraGries|PerFlowDetector)\b|fn random_spec\b)' \
  'baseline, per-flow oracle or random comparator definition(s) in scd-sketch or scd-core'
expect 0 '^crates/core/src/.*\bmod (perflow|metrics)\b' 'perflow or metrics module(s) declared in scd-core'
for what in 'struct CountMinSketch' 'struct CountSketch' 'struct MisraGries' 'struct PerFlowDetector' 'fn random_spec'; do
  expect 1 "^crates/bench/src/.*$what\\b" "definition(s) of $what under crates/bench/src"
done
# One JSON reader: the harness includes the benchmark's (benchmark/src/json.rs).
expect 0 '^crates/.*\benum (Json|JsonValue|Value)\b' 'JSON value type(s) under crates/*/src'

# One forecaster type: a model is its ModelSpec and its ModelState.
check 0 'Forecaster trait(s) or trait object(s) in crates/*/src, src or examples' \
  "$(grep -rnE '\b(trait|dyn) Forecaster\b' crates/*/src src examples --include='*.rs' || true)"
expect 1 '\bstruct Forecaster\b'                 'forecaster type(s)'
check 0 'per-model resume or snapshot_state function(s) in scd-forecast' \
  "$(grep -rnE '\bfn (resume|snapshot_state)\b' crates/forecast/src || true)"

magics=$(nontest | grep -oE 'b"SCD[A-Z]{1,4}[0-9]{0,2}"' | sort -u | tr '\n' ' ')
if [ "$(wc -w <<<"$magics")" -ne 7 ]; then
  echo "single-definition: expected seven magics, found: $magics"; fail=1
fi

# Retired magics may appear in tests only inside a test named *rejected*.
stray=$(grep -rnE 'b"SCD(SKT01|TRC01|CKPT1)"' crates tests --include='*.rs' | while IFS=: read -r file line _; do
  awk -v upto="$line" 'NR <= upto && match($0, /fn [a-z0-9_]+/) { name = substr($0, RSTART + 3, RLENGTH - 3) } END { print name }' "$file" |
    grep -q rejected || echo "$file:$line"
done)
if [ -n "$stray" ]; then
  echo "single-definition: retired magic outside a rejection test:"; printf '%s\n' "$stray" | sed 's/^/  /'; fail=1
fi

[ "$fail" -eq 0 ] && echo "single-definition: one envelope, one listener, seven magics, one LEB128 codec; one catch_unwind, one checkpoint loader, one checkpoint assembly, one checkpoint policy; one engine and one DetectorConfig in the CLI, no bare detector outside scd-core; one shard_of, no [[bench]] target, no BENCH_*.json, no bench env knob; one queue type, one stream entry point, no aggregator nap; one packed-body walker, no stale resend; one hash family build, no 64-bit entry gather; one full-list ranking, none in detect; one merge-and-clear sweep, in merge_shards; no detector in the grid search, one grid walker; no detector in the CDF figures, one per-flow energy, one sketch-energy objective; one archive push, no fat copy in the serving plane; no hand-written float arithmetic intrinsic, no fma target feature; one way into an ingest half, no batching knob, no Heartbeat frame; one router in the engine, no key set in it; one pack routine, one packed merge; one forecast step executor and per-cell loop, no tile walk or slice-kernel chain in a model; the baselines, per-flow oracle, metrics and random comparator only in scd-bench, once each; one JSON reader, the benchmark's; one forecaster type, no second copy of a model's state"
exit "$fail"
