#!/usr/bin/env bash
# Runs one end-to-end smoke scenario against an existing build.
#
#   tools/smoke.sh <scenario> [build-dir]
#   tools/smoke.sh figures <build-dir> <parent-build-dir>
#
# Scenarios: trace server bench crash-recovery chaos shard cluster admin
# admit figures. The build directory defaults to build/ at the repository
# root and must hold the binaries the scenario drives (reo_server,
# reo_loadgen, reo_cli, trace_validate, bench_validate, admin_probe,
# reo_top, admit_sweep; for figures, the figure benches and reo_cli). Work
# files land in a fresh ./smoke-<scenario>/. Exits non-zero on the first
# failed step; every process the scenario started is killed on the way out.
set -euo pipefail

SCENARIOS="trace server bench crash-recovery chaos shard cluster admin admit figures"
name=${1:-}
if [[ " $SCENARIOS " != *" $name "* ]]; then
  echo "usage: $0 <scenario> [build-dir] [parent-build-dir]; scenarios: $SCENARIOS" >&2
  exit 2
fi
ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD=$(cd "${2:-$ROOT/build}" && pwd)
# Only figures takes a third argument: the build to compare against.
PARENT_BUILD=${3:+$(cd "$3" && pwd)}
BASELINES=$ROOT/bench/baselines
rm -rf "smoke-$name"
mkdir "smoke-$name"
cd "smoke-$name"
trap 'kill -KILL $(jobs -p) 2>/dev/null || true' EXIT

loadgen() { "$BUILD/tools/reo_loadgen" "$@"; }
probe() { "$BUILD/tools/admin_probe" "$@"; }
bench_validate() { "$BUILD/tools/bench_validate" "$@"; }
port() { cat "$1.port"; }

# start NAME ARGS...: starts reo_server in the background on an ephemeral
# port, records NAME.pid, and waits up to 5 s for NAME.port.
start() {
  local who=$1
  shift
  rm -f "$who.port"
  "$BUILD/examples/reo_server" --port 0 --port-file "$who.port" "$@" &
  echo $! > "$who.pid"
  for _ in $(seq 1 50); do
    [ -s "$who.port" ] && return 0
    sleep 0.1
  done
  echo "$who did not open its port within 5s" >&2
  exit 1
}

# wait_exit NAME...: waits up to 10 s for each server to exit.
wait_exit() {
  local who
  for who in "$@"; do
    for _ in $(seq 1 100); do
      kill -0 "$(cat "$who.pid")" 2>/dev/null || break
      sleep 0.1
    done
  done
}

# drain NAME...: SIGTERMs each server and fails unless all have drained
# within 10 s.
drain() {
  local who
  for who in "$@"; do kill -TERM "$(cat "$who.pid")"; done
  wait_exit "$@"
  for who in "$@"; do
    if kill -0 "$(cat "$who.pid")" 2>/dev/null; then
      echo "$who did not drain within 10s" >&2
      exit 1
    fi
  done
}

# chaos_spec P [failslow]: writes chaos.json: latent corruption and
# transient read errors at probability P, plus device 1 slowed 8x.
chaos_spec() {
  local slow=""
  if [ "${2:-}" = failslow ]; then
    slow=',
    {"site": "flash.failslow", "probability": 1.0,
     "device": 1, "slow_factor": 8.0}'
  fi
  cat > chaos.json <<EOF
{
  "seed": 42,
  "rules": [
    {"site": "flash.latent", "probability": $1},
    {"site": "flash.read_transient", "probability": $1}$slow
  ]
}
EOF
}

# Fails unless FILE's flat JSON holds "KEY":0 for every KEY given.
expect_zero_in() {
  local file=$1 key
  shift
  for key in "$@"; do
    grep -q "\"$key\":0" "$file" || { echo "$file: $key != 0" >&2; exit 1; }
  done
}

scenario_trace() {
  "$BUILD/examples/reo_cli" --workload weak --scale-shift 8 \
    --fail 2000:0 --spare 4000:0 --wire --trace-sample 4 \
    --trace-out run.json --events-out run.events --stats-out stats.json
  "$BUILD/tools/trace_validate" run.json --min-spans 100 --min-events 5
  # The event log mentions the injected failure, and the spare took the
  # failed device's slot: all five devices are healthy again.
  grep -q "device.failure" run.events
  grep "spare.inserted" run.events | grep -q "healthy=5"
}

# rejects FLAG PROGRAM ARGS...: fails unless PROGRAM (a path under the
# build directory) exits 2 with FLAG named on stderr. Every case exits
# while parsing, before it builds a stack or starts a thread.
rejects() {
  local flag=$1 program=$2 code=0
  shift 2
  "$BUILD/$program" "$@" > rejected.out 2> rejected.err || code=$?
  if [ "$code" -ne 2 ] || ! grep -q -- "$flag" rejected.err; then
    echo "$program $*: exit $code, want 2 naming $flag" >&2
    cat rejected.err >&2
    exit 1
  fi
}

scenario_server() {
  # A malformed number is a usage error (exit 2), never an abort, a wrapped
  # value or a server that starts anyway.
  rejects --devices examples/reo_server --devices abc
  rejects --chunk-kb examples/reo_server --chunk-kb 0
  rejects --shards examples/reo_server --shards 99999999999999999999
  rejects --shards examples/reo_server --shards 65  # kMaxShards + 1
  rejects --max-connections examples/reo_server --max-connections abc
  rejects --capacity-mb examples/reo_server --capacity-mb 18000000000000
  rejects --node-id examples/reo_server --node-id 4294967297
  rejects --write-ratio examples/reo_cli --write-ratio 2
  rejects --scale-shift examples/reo_cli --scale-shift 99
  rejects --fail examples/reo_cli --fail 10:99
  rejects --connections tools/reo_loadgen --port 1 --connections 257  # kMaxConnections + 1
  rejects --objects tools/reo_loadgen --port 1 --objects 0
  rejects --arg tools/admin_probe --port 1 --arg 4294967297 stats
  rejects --windows tools/reo_top --port 1 --windows 4294967296

  start server --capacity-mb 128 --stats-out server-stats.json \
    --events-out server.events
  # reo_loadgen exits 2 on any frame/CRC/decode error it observes.
  loadgen --port "$(port server)" --connections 4 --requests 1000 \
    --objects 300 --write-ratio 0.3 --zipf 0.9 \
    --stats-out loadgen-stats.json
  drain server
  "$BUILD/tools/trace_validate" server-stats.json --min-spans 0
  "$BUILD/tools/trace_validate" loadgen-stats.json --min-spans 0
  expect_zero_in server-stats.json server.crc_errors server.frame_errors \
    server.decode_errors
  expect_zero_in loadgen-stats.json loadgen.wire.crc_errors \
    loadgen.wire.frame_errors
  grep -q "server.drained" server.events
}

scenario_bench() {
  bench_validate "$BASELINES/BENCH_serve.baseline.json"
  bench_validate "$BASELINES/BENCH_serve.json" --min-ops 12000
  bench_validate "$BASELINES/BENCH_serve.seed_server.json"
  start server --capacity-mb 128
  # Exit 1 = a worker died, 2 = wire corruption, 3 = payload verification
  # failed.
  loadgen --port "$(port server)" --connections 2 --requests 500 \
    --objects 100 --write-ratio 0.3 --zipf 0.9 --bench-out BENCH_serve.json
  # Machines vary, so only structural floors: every field present, ops
  # exact for the burst, throughput strictly positive.
  bench_validate BENCH_serve.json --min-ops 1000 --min-throughput 1
  drain server
}

# Populates dirty objects, SIGKILLs the server mid-burst, restarts it over
# the same data directory and verifies every journal-acked object, first
# at one shard, then at four.
scenario_crash_recovery() {
  mkdir -p state
  start server --capacity-mb 128 --data-dir state
  # Every write is classified dirty (class 1), so the server fsyncs data +
  # journal before acking. The load generator kills the server after 500
  # acked burst writes and records every acked rank.
  loadgen --port "$(port server)" --connections 4 --requests 4000 \
    --objects 300 --write-ratio 1.0 --write-class 1 \
    --kill-after 500 --kill-pid-file server.pid --ack-manifest acked.txt
  wait_exit server
  test -s acked.txt
  start server --capacity-mb 128 --data-dir state \
    --stats-out restart-stats.json --events-out restart.events
  # Exit 4 = acked object missing or payload mismatch after restart.
  loadgen --port "$(port server)" --verify-manifest acked.txt
  drain server
  expect_zero_in restart-stats.json persist.verify_failures \
    persist.commit_errors
  grep -q "recovery.restart" restart.events
  "$BUILD/examples/reo_cli" recover-stats --data-dir state

  # A flipped region in the durable state must make the server refuse to
  # serve (exit 3) and name the offending file — never start over an image
  # it cannot trust.
  printf 'CORRUPTED!' | dd of=state/CHECKPOINT bs=1 seek=32 conv=notrunc
  local code=0
  "$BUILD/examples/reo_server" --port 0 --port-file p2 --capacity-mb 128 \
    --data-dir state 2> corrupt.err || code=$?
  cat corrupt.err
  test "$code" -eq 3
  grep -q "corrupt durable state" corrupt.err
  grep -q "state/CHECKPOINT" corrupt.err

  # Each shard owns an independent journal under data_dir/shardK and
  # replays it in class order before the listener opens.
  mkdir -p state4
  start server --shards 4 --capacity-mb 128 --data-dir state4
  loadgen --port "$(port server)" --connections 4 --requests 4000 \
    --objects 300 --write-ratio 1.0 --write-class 1 \
    --kill-after 500 --kill-pid-file server.pid --ack-manifest acked4.txt \
    --shards 4
  wait_exit server
  test -s acked4.txt
  for k in 0 1 2 3; do
    test -d "state4/shard$k" || { echo "missing shard$k dir" >&2; exit 1; }
  done
  start server --shards 4 --capacity-mb 128 --data-dir state4 \
    --stats-out restart4-stats.json --events-out restart4.events
  loadgen --port "$(port server)" --verify-manifest acked4.txt
  drain server
  expect_zero_in restart4-stats.json persist.verify_failures \
    persist.commit_errors
  grep -q "recovery.restart" restart4.events
}

# Under latent corruption, transient I/O errors and a fail-slow device the
# cache must keep serving byte-correct data or degrade to clean misses:
# reo_loadgen exits 3 on a corrupt read, 4 on a lost acked write.
scenario_chaos() {
  chaos_spec 0.02 failslow
  mkdir -p state
  start server --capacity-mb 128 --data-dir state --fault-spec chaos.json \
    --stats-out server-stats.json --events-out server.events
  loadgen --port "$(port server)" --connections 4 --requests 2000 \
    --objects 200 --write-ratio 0.5 --write-class 1 --zipf 0.9 \
    --chaos-spec chaos.json
  drain server
  # Every detected corruption was repaired or refetched.
  expect_zero_in server-stats.json fault.crc_unrepaired

  # Same spec, but clean writes stage in DRAM first. admit-all keeps every
  # eviction graduating to flash, so the acked-object contract still holds.
  mkdir -p state-dram
  start dram --capacity-mb 128 --data-dir state-dram --dram-mb 16 \
    --admission all --fault-spec chaos.json --stats-out dram-stats.json
  loadgen --port "$(port dram)" --connections 4 --requests 2000 \
    --objects 200 --write-ratio 0.5 --write-class 3 --zipf 0.9 \
    --chaos-spec chaos.json
  drain dram
  expect_zero_in dram-stats.json fault.crc_unrepaired admit.graduate_failures
}

# Four shards under a chaos burst, the aggregated and per-shard admin
# plane, and a scaling report against a one-shard reference.
scenario_shard() {
  chaos_spec 0.02 failslow
  start server --shards 4 --capacity-mb 128 --telemetry on \
    --fault-spec chaos.json --stats-out server-stats.json \
    --events-out server.events
  # Each client connection pipelines objects of all four shards, so its
  # loop executes inline on every shard's stack, under that shard's
  # lock, while faults fire.
  loadgen --port "$(port server)" --connections 4 --requests 4000 \
    --objects 300 --write-ratio 0.5 --write-class 1 --zipf 0.9 \
    --chaos-spec chaos.json --shards 4
  # STATS arg 0 merges all four shard registries. A frame executed on
  # another shard's stack counts once on each side, in the same call.
  probe --port-file server.port \
    --expect-zero counters.server.crc_errors \
    --expect-zero counters.server.frame_errors \
    --expect-zero counters.server.decode_errors \
    --expect-zero counters.fault.crc_unrepaired \
    --expect-sum 'counters.server.forwarded=counters.server.forward_executed' \
    stats | tee stats.json
  probe --port-file server.port health | tee health.json
  grep -q '"shards":4' health.json
  # arg k = shard k-1 alone; an out-of-range arg must error in-band.
  for k in 1 2 3 4; do
    probe --port-file server.port --arg "$k" stats > "stats-shard$k.json"
    grep -q '"server.requests"' "stats-shard$k.json"
  done
  if probe --port-file server.port --arg 9 stats 2> argerr.txt; then
    echo "out-of-range shard arg should have failed" >&2
    exit 1
  fi
  loadgen --port "$(port server)" --connections 4 --requests 2000 \
    --objects 300 --write-ratio 0.3 --zipf 0.9 --shards 4 \
    --bench-out BENCH_serve.shards4.json
  drain server

  start ref --capacity-mb 128
  loadgen --port "$(port ref)" --connections 4 --requests 2000 \
    --objects 300 --write-ratio 0.3 --zipf 0.9 --shards 1 \
    --bench-out BENCH_serve.shards1.json
  drain ref
  # Structural floors only: the honest scaling numbers live in
  # bench/baselines/ (see EXPERIMENTS.md).
  bench_validate BENCH_serve.shards1.json --min-ops 2000 --min-throughput 1
  bench_validate BENCH_serve.shards4.json --min-ops 2000 --min-throughput 1
  for f in "$BASELINES"/BENCH_serve.shards*.json; do
    bench_validate "$f"
  done

  expect_zero_in server-stats.json server.crc_errors server.frame_errors \
    server.decode_errors fault.crc_unrepaired
  grep -q "server.drained" server.events
  python3 - <<'EOF'
import json
c = json.load(open("server-stats.json"))["counters"]
fwd = c.get("server.forwarded", 0)
done = c.get("server.forward_executed", 0)
assert fwd == done, (fwd, done)
assert fwd > 0, "burst never crossed a shard boundary"
EOF
}

# Three durable fault-armed nodes; node 1 is SIGKILLed mid-burst, then the
# survivors recover its class-0/1 objects in class order and keep every
# acked object across their own restart.
scenario_cluster() {
  bench_validate "$BASELINES/BENCH_serve.cluster3.json"
  chaos_spec 0.01
  for n in 0 1 2; do
    mkdir -p "state$n"
    start "n$n" --node-id "$n" --data-dir "state$n" --capacity-mb 128 \
      --fault-spec chaos.json --stats-out "n$n-stats.json" \
      --events-out "n$n.events"
  done
  local ep="127.0.0.1:$(port n0),127.0.0.1:$(port n1),127.0.0.1:$(port n2)"
  local surv="127.0.0.1:$(port n0),127.0.0.1:$(port n2)"
  # Classes 0-3 cycle across the ring; node 1 is SIGKILLed after 400 acked
  # burst writes, then the loadgen drives cross-node recovery (survivor
  # OWNERS walk, class-0/1 origin refetch in class order, 2/3 degrade) and
  # drain-verifies every acked rank byte-for-byte. Exit 3 = corruption,
  # 4 = acked class-0/1 loss.
  loadgen --cluster "$ep" --class-cycle --connections 4 --requests 800 \
    --objects 300 --object-kb 16 --write-ratio 0.5 --zipf 0.9 \
    --chaos-spec chaos.json --kill-node 1 --kill-after 400 \
    --kill-pid-file n1.pid --ack-manifest acked.txt
  # Node 1 is dead: the cluster table must show it down and the merged row
  # degraded while survivors keep answering.
  "$BUILD/tools/reo_top" --endpoints "$ep" --iterations 1 --plain \
    | tee top.log
  grep -q "down" top.log
  grep -q "degraded" top.log
  probe --endpoints "$surv" --expect-zero crc_errors \
    --expect-zero frame_errors --expect-zero decode_errors health \
    | tee health.log
  grep -q -- "--- node 1 " health.log
  grep -q -- "--- merged (2 nodes) ---" health.log
  probe --endpoints "$surv" --quiet \
    --expect-zero counters.server.crc_errors \
    --expect-zero counters.fault.crc_unrepaired stats
  drain n0 n2

  # Each survivor logged cluster.node_down once and a cluster.refetch per
  # re-owned class-0/1 object. Within each survivor's log the refetch
  # classes must be non-decreasing (all class 0 before any class 1) and
  # only classes 0/1 ever refetch — 2/3 degrade.
  grep -q "cluster.node_down" n0.events
  grep -q "cluster.node_down" n2.events
  python3 - <<'EOF'
import re
total = 0
for path in ("n0.events", "n2.events"):
    classes = [int(m.group(1))
               for line in open(path)
               if "cluster.refetch" in line
               for m in [re.search(r"class=(\d)", line)] if m]
    assert classes, f"{path}: no cluster.refetch events"
    assert classes == sorted(classes), f"{path}: out of order {classes}"
    assert set(classes) <= {0, 1}, f"{path}: class-2/3 refetched"
    total += len(classes)
print(f"{total} class-ordered refetches across survivors")
EOF
  for n in 0 2; do
    expect_zero_in "n$n-stats.json" server.crc_errors server.frame_errors \
      server.decode_errors fault.crc_unrepaired
    grep -q "server.drained" "n$n.events"
  done

  for n in 0 2; do
    start "n$n" --node-id "$n" --data-dir "state$n" --capacity-mb 128
  done
  ep="127.0.0.1:$(port n0),127.0.0.1:$(port n1),127.0.0.1:$(port n2)"
  # The workload-shape flags must match the drill: the expected payload is
  # PayloadFor(rank, object_kb) and the per-class contract comes from
  # --class-cycle.
  loadgen --cluster "$ep" --class-cycle --object-kb 16 --objects 300 \
    --verify-manifest acked.txt
  drain n0 n2
}

# The in-band admin plane must answer live, with zero wire corruption,
# while the data path is saturated.
scenario_admin() {
  start server --capacity-mb 128 --telemetry on --trace-sample 16 \
    --series-window-ms 200 --series-windows 120 \
    --stats-out server-stats.json
  "$BUILD/tools/reo_loadgen" --port "$(port server)" --connections 4 \
    --requests 20000 --objects 300 --write-ratio 0.3 --zipf 0.9 \
    > loadgen.log 2>&1 &
  local burst=$!
  sleep 1
  probe --port-file server.port \
    --expect-zero counters.server.crc_errors \
    --expect-zero counters.server.frame_errors \
    --expect-zero counters.server.decode_errors \
    --expect-zero counters.fault.crc_unrepaired \
    stats | tee stats.json
  probe --port-file server.port --arg 20 series | tee series.json
  probe --port-file server.port --expect-zero crc_errors \
    --expect-zero frame_errors health | tee health.json
  probe --port-file server.port --arg 10 events > events.json
  grep -q '"schema":"reo.health.v1"' health.json
  grep -q '"status":"ok"' health.json
  grep -q '"schema":"reo.series.v1"' series.json
  grep -q '"server.requests"' series.json
  grep -q '"server.latency.read_us"' stats.json
  "$BUILD/tools/reo_top" --port-file server.port --interval-ms 300 \
    --iterations 2 --plain | tee top.log
  grep -q "per-window rates" top.log
  grep -q "stage attribution" top.log
  grep -q "stage.transport.span_us" top.log
  wait "$burst" || { cat loadgen.log; exit 1; }
  drain server
  expect_zero_in server-stats.json server.crc_errors server.frame_errors \
    server.decode_errors server.admin.errors
}

# DRAM staging over the wire with a deliberately tight write-credit budget
# (1 MiB/s), so the bucket exhausts mid-burst and the drop path runs too.
scenario_admit() {
  start server --capacity-mb 128 --dram-mb 8 --admission credit \
    --flash-write-budget 1 --stats-out server-stats.json \
    --events-out server.events
  loadgen --port "$(port server)" --connections 4 --requests 20000 \
    --objects 300 --write-ratio 0.5 --write-class 3 --zipf 0.9
  # Every DRAM eviction must be accounted, live: graduated + dropped ==
  # evictions.
  probe --port-file server.port \
    --expect-zero counters.server.crc_errors \
    --expect-zero counters.server.frame_errors \
    --expect-sum 'counters.admit.graduated+counters.admit.dropped=counters.dram.evictions' \
    stats | tee stats.json
  grep -q '"admit.staged"' stats.json
  grep -q '"dram.hit_ratio"' stats.json
  drain server
  grep -q '"admit.staged"' server-stats.json
  python3 - <<'EOF'
import json
c = json.load(open("server-stats.json"))["counters"]
staged = c.get("admit.staged", 0)
grad = c.get("admit.graduated", 0)
dropped = c.get("admit.dropped", 0)
evicted = c.get("dram.evictions", 0)
assert staged > 0, "no writes staged in DRAM"
assert grad + dropped == evicted, (grad, dropped, evicted)
assert dropped > 0, "1 MiB/s budget should have exhausted"
EOF
  # The sweep asserts the headline claim itself (>= 30% fewer flash
  # writes/op within 1 hit-ratio point); bench_validate checks its report
  # against the serve schema.
  REO_SCALE_SHIFT=7 "$BUILD/bench/admit_sweep" --bench-out admit-report.json
  bench_validate admit-report.json
}

# Figure byte-diff: the simulator's output must not move. Runs the paper
# figures (fig5-9, space_efficiency) and the fault sweep at
# REO_SCALE_SHIFT=10, then one traced reo_cli run (a device failure, a
# spare, the wire transport, every 4th request sampled), from BUILD and
# from PARENT_BUILD, two at a time, and fails unless each pair of outputs
# is byte-identical: the stdouts (the printed telemetry snapshot is part
# of the compared bytes) and reo_cli's trace and event log. The runs use
# virtual time, so they repeat exactly. About 220 s per build on 4 vCPUs.
FIGURES="fig5_weak fig6_medium fig7_strong fig8_failure fig9_dirty space_efficiency fault_sweep"
TRACED_RUN="--workload weak --scale-shift 8 --fail 2000:0 --spare 4000:0
  --wire --trace-sample 4 --trace-out trace.json --events-out events.txt"
scenario_figures() {
  if [ -z "$PARENT_BUILD" ]; then
    echo "usage: $0 figures <build-dir> <parent-build-dir>" >&2
    exit 2
  fi
  local f pid differ=""
  same() {
    if cmp -s "$1" "$2"; then
      echo "$2: identical"
    else
      differ="$differ $2"
    fi
  }
  for f in $FIGURES; do
    REO_SCALE_SHIFT=10 "$BUILD/bench/$f" > "$f.txt" &
    pid=$!
    REO_SCALE_SHIFT=10 "$PARENT_BUILD/bench/$f" > "$f.parent.txt"
    wait "$pid"
    same "$f.parent.txt" "$f.txt"
  done
  # Each build writes into its own directory, so the paths reo_cli prints
  # are the same.
  mkdir cli cli.parent
  (cd cli && "$BUILD/examples/reo_cli" $TRACED_RUN > stdout.txt) &
  pid=$!
  (cd cli.parent && "$PARENT_BUILD/examples/reo_cli" $TRACED_RUN > stdout.txt)
  wait "$pid"
  for f in stdout.txt trace.json events.txt; do
    same "cli.parent/$f" "cli/$f"
  done
  if [ -n "$differ" ]; then
    echo "stdout differs from the parent build:$differ" >&2
    exit 1
  fi
}

"scenario_${name//-/_}"
echo "smoke $name: ok"
