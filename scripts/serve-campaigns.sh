#!/usr/bin/env bash
# Serves nine CLI campaigns (faults, levers, churn, clusters, the candidate
# index, node kills, numeric stress and evictions) with one `serve`
# binary, at MANN_THREADS=1 and 2, and keeps each run's stdout and report
# JSON in <out-dir> as <campaign>.t<threads>.txt and .json. Two calls, one
# per binary, and a `diff -r` of their output directories check that a
# change moves no byte of the serve CLI:
#
#   export MANN_SUITE_CACHE=/tmp/suite-cache   # one trained suite for both
#   scripts/serve-campaigns.sh old/target/release/serve /tmp/cli/old
#   scripts/serve-campaigns.sh target/release/serve /tmp/cli/new
#   diff -r /tmp/cli/old /tmp/cli/new
#
# Each run starts in a fresh working directory of its own, since the CLI
# writes its report (and the `kill` and `evict` WALs) relative to it. All
# runs share MANN_SUITE_CACHE, a temporary directory removed on exit when
# unset. A campaign that exits nonzero stops the script with its status.
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 <serve-binary> <out-dir>" >&2
  exit 2
fi
bin=$(realpath "$1")
mkdir -p "$2"
out=$(realpath "$2")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
export MANN_SUITE_CACHE=${MANN_SUITE_CACHE:-$work/suite-cache}

small='--tasks 2 --train 200 --test 25'
campaigns=(
  "fault|$small --requests 256 --rate-us 80 --policy affinity --pool 4 --story-cache 8 --fault-plan seed=7,corrupt=0.05,retries=3,crashes=2,cooldown-us=300,watchdog-us=400,seus=4,degrade-depth=8,degrade-margin=0.5"
  "levers|$small --requests 256 --rate-us 5 --queue 256 --policy affinity --pool 4 --story-cache 8 --inflight 8 --batch-window 4 --hop-prune 0.8 --link-latency-us 1"
  "churn|$small --requests 96 --rate-us 60 --trace-seed 43 --policy affinity --pool 6 --story-cache 4 --queue 128 --shards 4 --replication 2 --fault-plan seed=9,crashes=2,cooldown-us=500,watchdog-us=250 --membership-plan join=3@800,drain=1@2000,fail=2@3000,retune-threshold=0.02,hot-key=9"
  "cluster|$small --requests 256 --rate-us 40 --policy affinity --pool 6 --story-cache 8 --shards 4 --replication 2 --fault-plan seed=9,crashes=2,cooldown-us=400,watchdog-us=300"
  "cluster-clean|$small --requests 256 --rate-us 40 --policy affinity --pool 6 --story-cache 8 --shards 4 --replication 2"
  "indexed|--tasks 1 --train 24 --test 12 --story-sentences 400 --requests 48 --policy affinity --story-cache 8 --mem-index 32,8,0.4"
  "kill|$small --requests 256 --rate-us 40 --policy affinity --pool 6 --story-cache 8 --shards 2 --snapshot-every 64 --fault-plan seed=9,node-kills=1 --wal-dir wal"
  "stress|$small --requests 256 --rate-us 80 --policy affinity --pool 4 --story-cache 8 --ith --embed-scale 3.4e38 --numeric-policy failover"
  "evict|$small --requests 256 --rate-us 40 --policy affinity --pool 12 --story-cache 1 --fault-plan seed=5,seus=6,node-kills=1 --wal-dir wal,snap=16"
)

for threads in 1 2; do
  for campaign in "${campaigns[@]}"; do
    name=${campaign%%|*}
    read -r -a flags <<< "${campaign#*|}"
    run="$work/$name.t$threads"
    mkdir -p "$run"
    status=0
    (cd "$run" && MANN_THREADS=$threads "$bin" "${flags[@]}") \
      > "$out/$name.t$threads.txt" 2> "$run/stderr" || status=$?
    if [ "$status" -ne 0 ]; then
      echo "$name at MANN_THREADS=$threads exited $status:" >&2
      cat "$run/stderr" >&2
      exit "$status"
    fi
    cp "$run"/target/experiments/serve_*report.json "$out/$name.t$threads.json"
    echo "$name t$threads: ok" >&2
  done
done
