#!/usr/bin/env bash
# The CLI is one construction path and one feed loop: whatever shape the
# flags give the engine, and whichever command drives it, the bytes that
# come out are the same — and the same as the commit before.
#
#   .github/cli-identity.sh [PARENT_SCD]
#
# SCD (default target/release/scd) is the binary under test. With
# PARENT_SCD — the `scd` of the parent commit, built in a scratch clone —
# every output below is also `cmp`ed against the parent's, byte for byte.
# Without it (CI) the script still checks every identity *within* this
# binary: engine shapes against each other, every source and sink of
# `detect` against the plain replay, the distributed plane against the
# single box.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
SCD=${SCD:-$PWD/target/release/scd}
PARENT=${1:-}
PORT=${PORT:-19290}
W=$(mktemp -d)
trap 'rm -rf "$W"' EXIT
cd "$W"

# same A B WHAT: two files are byte-identical.
same() { cmp -s "$1" "$2" || { echo "cli-identity: $3 differ ($1 vs $2)"; cmp "$1" "$2" || true; exit 1; }; }
# kib OLD NEW WHAT: the archive's resident footprint (`archive: ... N KiB`)
# is a measurement, not an answer: it may fall from the parent's but not
# rise, and is masked in both files before their bytes are compared.
kib() {
  local re='^(archive: intervals .* epochs, )([0-9.]+)( KiB)'
  local was now; was=$(sed -nE "s/$re.*/\2/p" "$1") now=$(sed -nE "s/$re.*/\2/p" "$2")
  if [ -n "$was$now" ] && ! awk -v a="$was" -v b="$now" 'BEGIN { exit !(b <= a) }'; then
    echo "cli-identity: archive footprint rose from $was to $now KiB: $3"; exit 1
  fi
  sed -i -E "s/$re/\1…\3/" "$1" "$2"
}
# Runs ARGS under this binary into OUT.new.* and, with a parent, under the
# parent into OUT.old.*; then compares stdout and every named file.
both() { # both OUT FILES... -- ARGS...
  local out=$1; shift
  local files=(); while [ "$1" != -- ]; do files+=("$1"); shift; done; shift
  "$SCD" "${@//@/$out.new}" > "$out.new.txt"
  [ -n "$PARENT" ] || return 0
  "$PARENT" "${@//@/$out.old}" > "$out.old.txt"
  sed "s/$out\.old/$out.new/g" "$out.old.txt" > "$out.old.norm"
  cp "$out.new.txt" "$out.new.norm"
  kib "$out.old.norm" "$out.new.norm" "scd $*"
  same "$out.old.norm" "$out.new.norm" "stdout of: scd $*"
  for f in "${files[@]}"; do same "$out.old.$f" "$out.new.$f" "$f of: scd $*"; done
}

"$SCD" generate --profile small --hours 0.5 --interval 60 --out t.bin --seed 7 --dos 10:12:2:30 > /dev/null
T="--trace t.bin --interval 60 --threshold 0.4 --k 8192"

# detect: every engine shape x key strategy x model. Digests must not
# depend on the shape; stdout only by the GLR lines.
n=0
for model in ewma:0.5 'arima1:0.5,0.2/0.3'; do
  for strategy in twopass next sampled:0.5; do
    ref=
    for shape in "" "--shards 3" "--shards 2 --pipeline --source-threads 2" "--glr 4" "--glr 4 --pipeline"; do
      case "$strategy$shape" in sampled*--glr*) continue ;; esac  # feed-order sensitive: rejected
      n=$((n + 1)); out=d$n-${model%%:*}-${strategy%%:*}
      # shellcheck disable=SC2086
      both $out rep -- detect $T --model "$model" --strategy "$strategy" $shape --report-out @.rep
      grep -E '^(interval [0-9]+:|  ALARM)' $out.new.txt > $out.alarms || true
      if [ -z "$ref" ]; then ref=$out; else
        same $ref.new.rep $out.new.rep "digests of '$shape' vs the default engine ($model, $strategy)"
        same $ref.alarms $out.alarms "alarm lines of '$shape' vs the default engine ($model, $strategy)"
      fi
    done
  done
done
echo "cli-identity: detect — $n runs, digests independent of the engine's shape"

# Staggered lanes fold their slots through the engine's ingest half, so
# their alarm lines do not depend on its shape; the reversible (deltoid)
# detector builds no engine. Against the parent, stdout is compared.
# shellcheck disable=SC2086
both stagger -- detect $T --model ewma:0.5 --stagger 4
# shellcheck disable=SC2086
both reversible -- detect $T --model ewma:0.5 --strategy reversible
grep -q ' ALARM ' stagger.new.txt reversible.new.txt
# shellcheck disable=SC2086
"$SCD" detect $T --model ewma:0.5 --stagger 4 --shards 3 --source-threads 2 --report-out lanes.rep \
  > stagger-sharded.txt
same stagger.new.txt stagger-sharded.txt "stdout of --stagger 4 on 3 shards, 2 routing threads vs 1 shard"
# Lane 0's windows are the aligned intervals: its reports (every 4th line,
# from the first) are the default engine's.
awk 'NR % 4 == 1' lanes.rep > lane0.rep
same d1-ewma-twopass.new.rep lane0.rep "lane 0 of --stagger 4 vs the default engine's digests"
echo "cli-identity: detect --stagger 4 / --strategy reversible${PARENT:+ — same output as the parent binary}"

# tune: the spec, energy and candidate count the grid search prints, for
# every model family and for one ARIMA at the paper's depth.
for model in ma sma ewma nshw arima0 arima1 shw; do
  both tune-$model -- tune --trace t.bin --interval 60 --model $model
done
both tune-arima0-paper -- tune --trace t.bin --interval 60 --model arima0 --paper
echo "cli-identity: tune — every model family${PARENT:+ and --paper, same output as the parent binary}"

# The sparse close: ~220 records an interval into K = 65 536 buckets, so every
# shard merge walks only the lines its interval wrote — the merge counter
# must say so — and the digests are still the default engine's.
S="--trace t.bin --interval 60 --threshold 0.4 --k 65536 --model ewma:0.5"
# shellcheck disable=SC2086
both w1 rep -- detect $S --report-out @.rep
# shellcheck disable=SC2086
both w2 rep -- detect $S --shards 2 --pipeline --report-out @.rep
same w1.new.rep w2.new.rep "digests of the line-walked 2-shard merge vs the default engine"
# shellcheck disable=SC2086
"$SCD" detect $S --shards 2 --pipeline --metrics walk.jsonl > /dev/null
counter() { tail -1 walk.jsonl | grep -oE "\"$1\":[0-9]+" | cut -d: -f2; }
walks=$(counter scd_engine_sparse_merges_total) closes=$(counter scd_engine_intervals_total)
if [ -z "$walks" ] || [ "$walks" != "$closes" ]; then
  echo "cli-identity: ${walks:-no} line-walked merges of ${closes:-?} closes at --k 65536"; exit 1
fi
echo "cli-identity: detect --k 65536 — all $closes merges walked lines, digests independent of the shape"

# The archive and query-server sinks and the live source: the bytes they
# leave behind.
A="--model ewma:0.5 --budget 16 --full-res 4"
# shellcheck disable=SC2086
both a scda -- detect $T $A --archive-out @.scda --shards 4
# shellcheck disable=SC2086
both s scda -- detect $T $A --archive-out @.scda --shards 2 --pipeline --serve 127.0.0.1:$PORT \
  2> /dev/null
# shellcheck disable=SC2086
both st ck -- detect $T --model ewma:0.5 --live --checkpoint @.ck --every 2
same a.new.scda s.new.scda "--archive-out vs --archive-out --serve"

# The publish lane on dense fractional error sketches: ARIMA1 at K = 65 536,
# where the pipelined server runs its observer (the slim projection) and its
# archive push on the lane, and the plain archive sink runs both inline.
F="--trace t.bin --interval 60 --threshold 0.4 --k 65536 --model arima1:0.5,0.2/0.3 --budget 16 --full-res 4"
# shellcheck disable=SC2086
both fa scda -- detect $F --archive-out @.scda --shards 4
# shellcheck disable=SC2086
both fs scda -- detect $F --archive-out @.scda --shards 2 --pipeline --serve 127.0.0.1:$((PORT + 2)) \
  2> /dev/null
same fa.new.scda fs.new.scda "--archive-out vs --serve --pipeline --archive-out (arima1, --k 65536)"

# Answers from those dumps, whose older epochs load packed: every `scd query`
# kind — changed keys, key history, and the historical estimate, which reads
# the window's range sketch — over the whole coverage, windows that snap to
# merged epochs, and the newest epoch alone; with a parent, its answers from
# its own dump, byte for byte.
for dump in fa fs; do
  for window in "0 30" "3 11" "12 14" "20 29" "29 30"; do
    read -r from to <<< "$window"
    Q="query --archive @.scda --from $from --to $to"
    # shellcheck disable=SC2086
    both $dump -- $Q --threshold 0.4 --top 1000
    for key in 85.137.174.224 34.52.173.162; do
      # shellcheck disable=SC2086
      both $dump -- $Q --key $key
      # shellcheck disable=SC2086
      both $dump -- $Q --estimate $key
    done
  done
done
echo "cli-identity: query — changed keys, key history, estimate on the --k 65536 dumps${PARENT:+, same answers as the parent binary}"

# What only exists since every source and sink runs through one detect.
# shellcheck disable=SC2086
"$SCD" detect $T --model ewma:0.5 --live --shards 2 --report-out live.rep > /dev/null
same d1-ewma-twopass.new.rep live.rep "--live --shards 2 --report-out vs --report-out"
# shellcheck disable=SC2086
"$SCD" detect $T --model ewma:0.5 --strategy next --archive-out next.scda --report-out next.rep |
  grep -E '^(interval [0-9]+:|  ALARM)' > next.alarms || true
same d6-ewma-next.alarms next.alarms "--archive-out --strategy next vs --strategy next alarm lines"
same d6-ewma-next.new.rep next.rep "--archive-out --strategy next vs --strategy next digests"
# A checkpointed replay reports what an unchecked one does, GLR beside the
# archive sink leaves the archive it leaves without, and so does the live
# source on this interval-ordered trace.
# shellcheck disable=SC2086
"$SCD" detect $T --model ewma:0.5 --checkpoint ck.ck --every 2 --report-out ck.rep > /dev/null
same d1-ewma-twopass.new.rep ck.rep "--checkpoint --every 2 vs unchecked digests"
# shellcheck disable=SC2086
"$SCD" detect $T $A --glr 4 --archive-out glr.scda --shards 4 > /dev/null
same a.new.scda glr.scda "--glr 4 --archive-out vs --archive-out"
# shellcheck disable=SC2086
"$SCD" detect $T $A --live --archive-out live.scda > /dev/null
same a.new.scda live.scda "--live --archive-out vs --archive-out"
echo "cli-identity: --live, --archive-out, --checkpoint and --glr beside --archive-out agree with detect"

# The distributed plane: three nodes, one aggregator, the single box's digests.
plane() { # plane BIN OUT
  rm -rf "spool-$2"
  "$1" detect --listen 127.0.0.1:$((PORT + 1)) --nodes 3 --model ewma:0.5 --k 8192 --threshold 0.4 \
    --report-out "$2" --grace-ms 2000 --node-timeout-ms 5000 --timeout-secs 120 > "$2.log" 2>&1 &
  local agg=$! pids=()
  sleep 1
  for id in 0 1 2; do
    "$1" ingest-node --trace t.bin --interval 60 --node $id --nodes 3 --connect 127.0.0.1:$((PORT + 1)) \
      --k 8192 --spool "spool-$2" > /dev/null 2>&1 &
    pids+=($!)
  done
  for pid in "${pids[@]}"; do wait "$pid"; done
  wait "$agg"
}
plane "$SCD" dist.new.rep
same d1-ewma-twopass.new.rep dist.new.rep "--listen digests vs the single box"
if [ -n "$PARENT" ]; then
  plane "$PARENT" dist.old.rep
  same dist.old.rep.log dist.new.rep.log "--listen stdout and stderr vs the parent's"
  same dist.old.rep dist.new.rep "--listen digests vs the parent's"
fi
echo "cli-identity: distributed digests match the single box${PARENT:+ and the parent binary}"
