#!/usr/bin/env python3
"""Reo serving benchmark: open-loop latency and capacity of reo_server.

    python3 perfbench/run.py --workload hot_read --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a Reo checkout. The first run builds reo_server and the
benchmark's two programs (perfbench_driver, perfbench_replay) into
.bench_build (or $CARGO_TARGET_DIR); scratch files go to .bench_run and are
removed at exit.

--trace 0 measures the end-to-end metrics: set-up time, latency at the
workload's nominal rate, the highest rate of its fixed ladder that meets its
latency limit, server CPU per op, space and flash-write amplification, and
restart time. --trace 1 measures the per-layer metrics: the server's own
counters over a nominal-rate phase, plus the wall time per layer from the
traced in-process replay (perfbench_replay). Both print each metric with its
unit and sample count, then one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

The correctness gates (every read byte-checked, clean wire, no unrepaired
corruption, forwarded == executed, no acked write lost across a SIGKILL
restart) set "correct" to false; the exit code is nonzero when one fails.
See perfbench/README.md for why each workload and metric was chosen.
"""

import argparse
import json
import math
import os
import re
import select
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")

# Per workload: the server's flags, the objects and op mix, the nominal rate
# (about half of capacity on a 4-vCPU host), the ladder of rates tried after
# it, the p99 latency limit the ladder is judged by, and the op count of the
# traced replay. `persist_replay` runs the replay's persistence pass on a
# workload whose server keeps no durable state (its classes 0/1 are what
# the journal fsyncs). Latent faults (`fault_p`) hit one device only: each
# chunk of a stripe sits on its own device, so no stripe ever holds more
# than one corrupt chunk and every read can be repaired. Spread over all
# devices, a 3+2 stripe with three corrupt chunks (about one write in 10^5
# at p = 0.01) failed a read now and then, and no op may fail.
WORKLOADS = {
    "hot_read": {
        "server": ["--shards", "1"],
        "objects": 1500, "object_kb": 64, "write_ratio": 0.05, "cls": "none",
        "nominal": 12000, "ladder": [19000, 22000, 25000, 28000, 31000, 34000],
        "limit_us": 5000, "replay_ops": 20000,
    },
    "parity_degraded": {
        "server": ["--shards", "1", "--capacity-mb", "512"],
        "objects": 160, "object_kb": 256, "write_ratio": 0.3, "cls": "2",
        "fault_p": 0.05, "fault_device": 0,
        "nominal": 2000, "ladder": [3000, 3500, 4000, 4500, 5000, 5500],
        "limit_us": 15000, "replay_ops": 6000,
    },
    "durable_dirty": {
        "server": ["--shards", "1", "--fsync-batch", "32"],
        "durable": True,
        "objects": 300, "object_kb": 64, "write_ratio": 0.7, "cls": "1",
        "nominal": 150, "ladder": [300, 500, 800, 1200, 1600, 2000],
        "limit_us": 50000, "replay_ops": 800,
    },
    "sharded_mix": {
        "server": ["--shards", "2"],
        "objects": 600, "object_kb": 64, "write_ratio": 0.3, "cls": "cycle",
        "persist_replay": True,
        "nominal": 8000, "ladder": [16000, 20000, 24000, 28000, 32000, 36000],
        "limit_us": 5000, "replay_ops": 12000,
    },
}

SETUPS = 5      # set-ups per run; setup_s is their median
RESTARTS = 9    # SIGKILL restarts per run; restart_s is their median
NOMINAL_SHARE = 0.4   # of --seconds spent at the nominal rate
STEP_SHARE = 0.1      # of --seconds per ladder step

# End-to-end metrics in the JSON result (the ones BENCHMARK.json names).
END_TO_END = [  # name, unit
    ("setup_s", "s"), ("server_cpu_us_per_op", "us"), ("ok_ratio", "ratio"),
    ("flash_write_amp", "ratio"), ("space_amp", "ratio"),
]
# Printed with the others but left out of the JSON result: on a shared
# 4-vCPU host their run-to-run spread or drift reaches or exceeds the
# largest bound a benchmark may set (see README.md, "Steadiness").
END_TO_END_PRINTED = [
    ("read_p50_us", "us"), ("write_p50_us", "us"), ("read_p90_us", "us"),
    ("write_p90_us", "us"), ("read_p99_us", "us"), ("write_p99_us", "us"),
    ("max_rate_ops_s", "ops/s"), ("restart_s", "s"), ("fail_ratio", "ratio"),
]
PER_LAYER = [
    ("server.decode_us", "us"), ("server.encode_us", "us"),
    ("server.service_us", "us"), ("server.allocs_per_op", "count"),
    ("server.wire_bytes_per_op", "bytes"),
    ("osd.execute_self_us", "us"), ("osd.read_miss_ratio", "ratio"),
    ("core.write_self_us", "us"), ("core.read_self_us", "us"),
    ("core.degraded_read_ratio", "ratio"), ("core.reserve_rejection_ratio", "ratio"),
    ("array.put_us", "us"), ("array.get_us", "us"), ("array.rebuild_us", "us"),
    ("array.chunk_writes_per_put", "count"), ("array.chunk_reads_per_get", "count"),
    ("array.crc_repair_ratio", "ratio"),
    ("ec.encode_us", "us"), ("ec.reconstruct_us", "us"),
    ("flash.slot_writes_per_op", "count"), ("flash.bytes_read_per_op", "bytes"),
    ("persist.commit_us", "us"), ("persist.fsyncs_per_write", "count"),
    ("persist.disk_bytes_per_user_byte", "ratio"), ("persist.checkpoint_us", "us"),
    ("persist.restore_s", "s"),
    ("shard.forwarded_ratio", "ratio"), ("shard.request_imbalance", "ratio"),
    ("client.cpu_us_per_op", "us"), ("client.lateness_p99_us", "us"),
    ("trace.overhead_pct", "%"), ("trace.self_sum_error_pct", "%"),
]


class BenchError(Exception):
    """Set-up or infrastructure failure: no result can be printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- Build ----------------------------------------------------------------

def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    out = build_dir()
    logf = os.path.join(out, "perfbench-build.log")
    os.makedirs(out, exist_ok=True)
    with open(logf, "a") as lf:
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            if subprocess.run(cmd, stdout=lf, stderr=subprocess.STDOUT).returncode != 0:
                raise BenchError("build failed; see " + logf)
    bins = {name: os.path.join(out, name)
            for name in ("reo_server", "perfbench_driver", "perfbench_replay")}
    PIN_EXE[:] = [bins["perfbench_driver"]]
    return bins


# --- CPU placement --------------------------------------------------------

def cpu_sets():
    """Disjoint CPU sets for the server and the driver (shared if only one)."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 4:
        return cpus[:2], cpus[2:4]
    if len(cpus) >= 2:
        return cpus[:1], cpus[1:]
    return cpus, cpus


def pinned(cmd, cpus):
    """`cmd` run through `perfbench_driver pin`, restricted to `cpus`. The
    pin step execs, so the process keeps its pid."""
    return [PIN_EXE[0], "pin", ",".join(str(c) for c in cpus)] + cmd


PIN_EXE = []  # set by build(): the driver binary that does the pinning


class KeepAwake:
    """One idle-class loop per CPU in use (perfbench_driver keep-awake). A
    virtual CPU that halts when idle can take milliseconds to wake on a
    shared host; these loops keep each CPU running without taking time from
    anything else (SCHED_IDLE yields to every normal task at once)."""

    def __init__(self, exe, cpus):
        self.procs = [subprocess.Popen(pinned([exe, "keep-awake"], [cpu]))
                      for cpu in sorted(set(cpus))]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for p in self.procs:
            p.kill()
        for p in self.procs:
            p.wait()


# --- Processes ------------------------------------------------------------

class Server:
    """One reo_server process pinned to `cpus`. Its port is read from the
    "listening on" line it prints; --port-file is not used because the server
    fsyncs that file, and a busy shared disk can stall an fsync for seconds."""

    live = []  # every server started; main() kills what is left

    def __init__(self, exe, flags, cpus):
        self.proc = subprocess.Popen(pinned([exe, "--port", "0"] + flags, cpus),
                                     stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        self.port = None
        self.output = b""
        Server.live.append(self)

    def wait_ready(self, timeout=30):
        """Waits for the line that names the listening port."""
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while time.monotonic() < deadline:
            match = re.search(rb"listening on [0-9.]+:([0-9]+)", self.output)
            if match:
                self.port = int(match.group(1))
                return
            ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
            chunk = os.read(fd, 4096) if ready else b""
            if ready and not chunk:
                self.proc.wait()
                raise BenchError("reo_server exited with %d: %s"
                                 % (self.proc.returncode, self.output.decode(errors="replace")))
            self.output += chunk
        raise BenchError("reo_server did not start within %d s" % timeout)

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        if self in Server.live:
            Server.live.remove(self)


def run_json(cmd, cpus, timeout=170):
    """Runs a benchmark program and parses the JSON object it prints."""
    res = subprocess.run(pinned(cmd, cpus), stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, timeout=timeout)
    if res.returncode != 0:
        raise BenchError("%s failed (%d): %s" % (os.path.basename(cmd[0]),
                                                 res.returncode, res.stderr.strip()))
    return json.loads(res.stdout.strip().splitlines()[-1])


# --- Helpers over the server's counters -----------------------------------

def metric(stats, name):
    """A counter or gauge from a reo.stats JSON snapshot (0 when absent)."""
    if not stats:
        return 0.0
    return stats["counters"].get(name, stats["gauges"].get(name, 0.0))


def summed(stats, prefix, suffix):
    """Sum of every counter/gauge named prefix*suffix (e.g. flash.dev*.writes)."""
    if not stats:
        return 0.0
    total = 0.0
    for section in ("counters", "gauges"):
        for name, value in stats[section].items():
            if name.startswith(prefix) and name.endswith(suffix):
                total += value
    return total


def delta(load, fn):
    return fn(load["stats_after"]) - fn(load["stats_before"])


def ratio(a, b):
    return a / b if b else 0.0


# --- Correctness gates ----------------------------------------------------

def load_gates(name, load):
    """Gates on one driver `load` result; returns the list of failures."""
    failures = []
    if load["verify_errors"]:
        failures.append("%d reads returned wrong bytes" % load["verify_errors"])
    if load["wire_errors"]:
        failures.append("%d client-side wire errors" % load["wire_errors"])
    after = load["stats_after"]
    wire = sum(metric(after, "server." + k) for k in ("crc_errors", "frame_errors",
                                                       "decode_errors"))
    if wire:
        failures.append("server counted %d wire CRC/frame/decode errors" % wire)
    if name == "parity_degraded" and metric(after, "fault.crc_unrepaired") != 0:
        failures.append("fault.crc_unrepaired = %d" % metric(after, "fault.crc_unrepaired"))
    health = load.get("health") or {}
    if health.get("forwarded", 0) != health.get("forward_executed", 0):
        failures.append("forwarded %s != forward_executed %s after drain"
                        % (health.get("forwarded"), health.get("forward_executed")))
    return failures


def verify_gates(result):
    failures = []
    if result["missing"] or result["corrupt"]:
        failures.append("after restart: %d acked objects missing, %d corrupt"
                        % (result["missing"], result["corrupt"]))
    if not result["wire_clean"]:
        failures.append("wire errors during restart verification")
    return failures


# --- One run --------------------------------------------------------------

def workload_flags(w, seed):
    return ["--objects", str(w["objects"]), "--object-kb", str(w["object_kb"]),
            "--write-ratio", str(w["write_ratio"]), "--zipf", "0.9",
            "--class", w["cls"], "--seed", str(seed)]


def server_flags(w, run_dir, seed):
    flags = list(w["server"])
    if w.get("durable"):
        flags += ["--data-dir", os.path.join(run_dir, "data")]
    if w.get("fault_p"):
        spec = os.path.join(run_dir, "faults.json")
        with open(spec, "w") as f:
            json.dump({"seed": seed, "rules": [{"site": "flash.latent",
                                                "probability": w["fault_p"],
                                                "device": w["fault_device"]}]}, f)
        flags += ["--fault-spec", spec]
    return flags


def shards_of(w):
    return int(w["server"][w["server"].index("--shards") + 1])


def set_up(bins, w, seed, run_dir, cpus):
    """Spawns a fresh server and populates it; returns (server, seconds)."""
    shutil.rmtree(os.path.join(run_dir, "data"), ignore_errors=True)
    t0 = time.monotonic()
    server = Server(bins["reo_server"], server_flags(w, run_dir, seed), cpus[0])
    try:
        server.wait_ready()
        run_json([bins["perfbench_driver"], "populate", "--port", str(server.port)]
                 + workload_flags(w, seed), cpus[1])
    except Exception:
        server.kill()
        raise
    return server, time.monotonic() - t0


def drive(bins, w, seed, server, cpus, phases, manifest, corrupt=False):
    cmd = [bins["perfbench_driver"], "load", "--port", str(server.port),
           "--connections", str(2 if len(cpus[1]) >= 2 else 1),
           "--limit-us", str(w["limit_us"]), "--server-pid", str(server.proc.pid),
           "--shards", str(shards_of(w)), "--manifest-out", manifest]
    for rate, secs in phases:
        cmd += ["--phase", "%g:%g" % (rate, secs)]
    if corrupt:
        cmd.append("--corrupt-expect")
    return run_json(cmd + workload_flags(w, seed), cpus[1])


def max_rate(w, phases):
    """Highest ladder rate meeting the limit, interpolated (in log p99)
    between the last step that met it and the first that missed."""
    limit = w["limit_us"]
    last = phases[0]
    if not last["pass"]:
        return last["rate"] * min(1.0, limit / max(last["p99_us"], 1e-9))
    for step in phases[1:]:
        if not step["pass"]:
            hi = max(step["p99_us"], limit * 1.0001)
            lo = min(last["p99_us"], limit)
            t = (math.log(limit) - math.log(max(lo, 1e-9))) / (math.log(hi) - math.log(max(lo, 1e-9)))
            return last["rate"] + (step["rate"] - last["rate"]) * min(max(t, 0.0), 1.0)
        last = step
    return last["rate"]


ATTEMPTS = 2  # measurements per run when the generator falls behind


def run_end_to_end(bins, name, w, seed, seconds, run_dir, cpus):
    """Measures the end-to-end metrics. A measurement in which the generator
    fell behind its own schedule at the nominal rate (lateness p99 above
    half the latency limit) measured the host, not the server: it is marked
    invalid and taken again after a pause, up to ATTEMPTS times; the last
    one is reported, flagged in the log."""
    for attempt in range(1, ATTEMPTS + 1):
        values, attempted, failed, failures, lateness = measure_end_to_end(
            bins, name, w, seed, seconds, run_dir, cpus)
        if lateness <= w["limit_us"] / 2:
            break
        log("run invalid: generator lateness p99 %.0f us (attempt %d of %d)"
            % (lateness, attempt, ATTEMPTS))
        if attempt < ATTEMPTS:
            time.sleep(2)
    return values, attempted, failed, failures


def measure_end_to_end(bins, name, w, seed, seconds, run_dir, cpus):
    failures = []
    setups = []
    server = None
    for i in range(SETUPS):
        if server is not None:
            server.kill()
        server, secs = set_up(bins, w, seed, run_dir, cpus)
        setups.append(secs)
    manifest = os.path.join(run_dir, "manifest")
    phases = [(w["nominal"], seconds * NOMINAL_SHARE)]
    phases += [(rate, seconds * STEP_SHARE) for rate in w["ladder"]]
    try:
        load = drive(bins, w, seed, server, cpus, phases, manifest)
    except Exception:
        server.kill()
        raise
    failures += load_gates(name, load)
    restarts = []
    verified = 0
    for i in range(RESTARTS):
        server.kill()
        t0 = time.monotonic()
        server = Server(bins["reo_server"], server_flags(w, run_dir, seed), cpus[0])
        server.wait_ready()
        restarts.append(time.monotonic() - t0)
        if w.get("durable"):
            # Every acked write must come back intact after the SIGKILL. The
            # kill leaves the page cache intact, so this does not test
            # unflushed data.
            result = run_json([bins["perfbench_driver"], "verify", "--port",
                               str(server.port), "--manifest", manifest]
                              + workload_flags(w, seed), cpus[1])
            failures += verify_gates(result)
            verified += result["checked"]
    server.kill()

    ph = load["phases"]
    nominal = ph[0]
    attempted = sum(p["attempted"] for p in ph)
    failed = sum(p["failed"] for p in ph)
    after = load["stats_after"]
    flash_written = delta(load, lambda s: summed(s, "flash.dev", ".bytes_written"))
    user = metric(after, "dataplane.user_bytes")
    values = {
        "setup_s": (statistics.median(setups), SETUPS),
        "read_p50_us": (nominal["read_p50_us"], nominal["reads"]),
        "read_p99_us": (nominal["read_p99_us"], nominal["reads"]),
        "write_p50_us": (nominal["write_p50_us"], nominal["writes"]),
        "write_p99_us": (nominal["write_p99_us"], nominal["writes"]),
        "read_p90_us": (nominal["read_p90_us"], nominal["reads"]),
        "write_p90_us": (nominal["write_p90_us"], nominal["writes"]),
        "max_rate_ops_s": (max_rate(w, ph), len(ph)),
        "server_cpu_us_per_op": (load["server_cpu_s"] * 1e6 / max(load["nominal_ops"], 1),
                                 load["nominal_ops"]),
        "ok_ratio": (1.0 - ratio(failed, attempted), attempted),
        "fail_ratio": (ratio(failed, attempted), attempted),
        "flash_write_amp": (ratio(flash_written, load["acked_write_bytes"]),
                            load["acked_write_bytes"]),
        "space_amp": (ratio(user + metric(after, "dataplane.redundancy_bytes"), user), 1),
        "restart_s": (statistics.median(restarts), RESTARTS),
    }
    lateness = nominal["lateness_p99_us"]
    if load["sense_errors"]:
        log("failed replies by sense code: %s" % load["sense_codes"])
    log("nominal phase: %d ops at %g ops/s, generator lateness p99 %.0f us, "
        "client CPU %.1f us/op; ladder: %s; fail_ratio %.6f (%d of %d); "
        "restart verify read %d objects"
        % (nominal["attempted"], nominal["rate"], lateness,
           load["client_cpu_s"] * 1e6 / max(load["nominal_ops"], 1),
           ", ".join("%g:%s(p99 %.0f%s)" % (p["rate"], "ok" if p["pass"] else "miss",
                                            p["p99_us"], ", %d failed" % p["failed"]
                                            if p["failed"] else "") for p in ph),
           ratio(failed, attempted), failed, attempted, verified))
    return values, attempted, failed, failures, lateness


def run_per_layer(bins, name, w, seed, seconds, run_dir, cpus):
    failures = []
    server, _ = set_up(bins, w, seed, run_dir, cpus)
    manifest = os.path.join(run_dir, "manifest")
    nominal_s = seconds * NOMINAL_SHARE
    try:
        load = drive(bins, w, seed, server, cpus, [(w["nominal"], nominal_s)], manifest)
    finally:
        server.kill()
    failures += load_gates(name, load)
    replay_cmd = [bins["perfbench_replay"], "--ops", str(w["replay_ops"]),
                  "--rate", str(w["nominal"]), "--seconds", str(nominal_s),
                  "--shards", str(shards_of(w)),
                  "--spans-out", os.path.join(run_dir, "spans.csv")]
    srv = w["server"]
    if "--capacity-mb" in srv:
        replay_cmd += ["--capacity-mb", srv[srv.index("--capacity-mb") + 1]]
    if w.get("fault_p"):
        replay_cmd += ["--fault-p", str(w["fault_p"]),
                       "--fault-device", str(w["fault_device"])]
    if w.get("durable") or w.get("persist_replay"):
        replay_cmd += ["--scratch-dir", os.path.join(run_dir, "replay")]
    if w.get("durable"):
        replay_cmd.append("--durable")
    rp = run_json(replay_cmd + workload_flags(w, seed), cpus[0])
    if rp["failed"] or rp["verify_errors"]:
        failures.append("traced replay: %d failed ops, %d wrong reads"
                        % (rp["failed"], rp["verify_errors"]))

    nominal = load["phases"][0]
    ops = nominal["attempted"]
    d = lambda fn: delta(load, fn)
    requests = d(lambda s: metric(s, "server.requests"))
    reads = d(lambda s: metric(s, "dataplane.reads"))
    writes = d(lambda s: metric(s, "dataplane.writes"))
    shard_reqs = [metric(a, "server.requests") - metric(b, "server.requests")
                  for a, b in zip(load["shard_stats_after"], load["shard_stats_before"])]
    detected = d(lambda s: metric(s, "fault.crc_detected"))
    values = {k: rp[k] for k, _ in PER_LAYER if k in rp}
    values.update({
        "server.wire_bytes_per_op": ratio(d(lambda s: metric(s, "server.bytes_in")
                                            + metric(s, "server.bytes_out")), requests),
        "osd.read_miss_ratio": ratio(d(lambda s: metric(s, "osd.read_misses")),
                                     d(lambda s: metric(s, "osd.reads"))),
        "core.degraded_read_ratio": ratio(d(lambda s: metric(s, "dataplane.degraded_reads")),
                                          reads),
        "core.reserve_rejection_ratio": ratio(
            d(lambda s: metric(s, "dataplane.reserve_rejections")), writes),
        # No corruption found means nothing was left unrepaired.
        "array.crc_repair_ratio": ratio(d(lambda s: metric(s, "fault.crc_repairs")),
                                        detected) if detected else 1.0,
        "flash.slot_writes_per_op": ratio(d(lambda s: summed(s, "flash.dev", ".writes")),
                                          requests),
        "flash.bytes_read_per_op": ratio(d(lambda s: summed(s, "flash.dev", ".bytes_read")),
                                         requests),
        "shard.forwarded_ratio": ratio(d(lambda s: metric(s, "server.forwarded")), requests),
        "shard.request_imbalance": (max(shard_reqs) / statistics.mean(shard_reqs)
                                    if shard_reqs and statistics.mean(shard_reqs) else 1.0),
        "client.cpu_us_per_op": load["client_cpu_s"] * 1e6 / max(ops, 1),
        "client.lateness_p99_us": nominal["lateness_p99_us"],
        "trace.self_sum_error_pct": abs(rp["trace.self_sum_ratio"] - 1.0) * 100.0,
    })
    log("traced replay: %d ops, %d spans; service %.2f us/op traced vs %.2f untraced"
        % (rp["ops"], rp["spans"], rp["server.service_us"], rp["trace.untraced_service_us"]))
    samples = {k: rp["ops"] for k in values}
    samples.update({k: ops for k in ("server.wire_bytes_per_op", "flash.slot_writes_per_op",
                                     "flash.bytes_read_per_op", "client.cpu_us_per_op",
                                     "client.lateness_p99_us")})
    return ({k: (v, samples[k]) for k, v in values.items()},
            nominal["attempted"] + rp["ops"], nominal["failed"] + rp["failed"], failures)


def run(workload, seed, seconds, trace):
    w = WORKLOADS[workload]
    bins = build()
    run_dir = os.path.join(ROOT, ".bench_run", "%s-%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cpus = cpu_sets()
    try:
        with KeepAwake(bins["perfbench_driver"], cpus[0] + cpus[1]):
            if trace:
                values, attempted, failed, failures = run_per_layer(
                    bins, workload, w, seed, seconds, run_dir, cpus)
                names, printed = PER_LAYER, []
            else:
                values, attempted, failed, failures = run_end_to_end(
                    bins, workload, w, seed, seconds, run_dir, cpus)
                names, printed = END_TO_END, END_TO_END_PRINTED
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for f in failures:
        log("CORRECTNESS GATE FAILED: " + f)
    metrics = {}
    for name, unit in names + printed:
        value, count = values.get(name, (0.0, 0))
        print("%-34s %14.6g %-6s (n=%d)" % (name, value, unit, count))
        if (name, unit) in names:
            metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not failures else 1


# --- Self-test ------------------------------------------------------------

def self_test():
    """Runs each workload briefly in both modes, checks every metric named
    in BENCHMARK.json is printed with its unit, and checks that each
    correctness gate fires on deliberately wrong input."""
    problems = []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload",
                   workload["name"], "--seed", "7", "--seconds", "2", "--trace", str(trace)]
            res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=300)
            lines = res.stdout.strip().splitlines()
            out = json.loads(lines[-1]) if lines else {}
            if res.returncode != 0 or not out.get("correct"):
                problems.append("%s trace %d: exit %d" % (workload["name"], trace, res.returncode))
            for m in spec[key]:
                got = out.get("metrics", {}).get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append("%s trace %d: metric %s missing or wrong unit"
                                    % (workload["name"], trace, m["name"]))
                elif not any(l.split()[0] == m["name"] for l in lines[:-1] if l.split()):
                    problems.append("%s trace %d: %s not printed by name"
                                    % (workload["name"], trace, m["name"]))
            log("self-test: %s trace %d done" % (workload["name"], trace))

    # Each gate must fire on wrong input.
    clean = {"verify_errors": 0, "wire_errors": 0, "health": {},
             "stats_after": {"counters": {}, "gauges": {}}}
    def bad(**changes):
        load = json.loads(json.dumps(clean))
        for k, v in changes.items():
            if k == "counters":
                load["stats_after"]["counters"].update(v)
            else:
                load[k] = v
        return load
    gate_cases = [
        ("hot_read", bad(verify_errors=1), "wrong read bytes"),
        ("hot_read", bad(wire_errors=1), "client wire error"),
        ("hot_read", bad(counters={"server.crc_errors": 1}), "server CRC error"),
        ("hot_read", bad(counters={"server.decode_errors": 1}), "server decode error"),
        ("parity_degraded", bad(counters={"fault.crc_unrepaired": 1}), "unrepaired corruption"),
        ("sharded_mix", bad(health={"forwarded": 5, "forward_executed": 4}),
         "forward mismatch"),
    ]
    if load_gates("hot_read", clean):
        problems.append("gates fire on clean input")
    for name, load, what in gate_cases:
        if not load_gates(name, load):
            problems.append("gate did not fire: " + what)
    for result, what in (({"missing": 1, "corrupt": 0, "wire_clean": True}, "lost acked write"),
                         ({"missing": 0, "corrupt": 1, "wire_clean": True}, "corrupt acked write")):
        if not verify_gates(result):
            problems.append("gate did not fire: " + what)

    # And the byte-level checks, against a live server: a corrupted expected
    # payload must fail every read, in the load driver and in the post-restart
    # verification.
    bins = build()
    w = WORKLOADS["durable_dirty"]
    run_dir = os.path.join(ROOT, ".bench_run", "selftest-%d" % os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cpus = cpu_sets()
    try:
        server, _ = set_up(bins, w, 7, run_dir, cpus)
        manifest = os.path.join(run_dir, "manifest")
        try:
            load = drive(bins, w, 7, server, cpus, [(w["nominal"], 1.0)], manifest,
                         corrupt=True)
            if not load_gates("durable_dirty", load):
                problems.append("corrupted expected payload passed the load check")
            server.kill()
            server = Server(bins["reo_server"], server_flags(w, run_dir, 7), cpus[0])
            server.wait_ready()
            result = run_json([bins["perfbench_driver"], "verify", "--port", str(server.port),
                               "--manifest", manifest, "--corrupt-expect"]
                              + workload_flags(w, 7), cpus[1])
            if not verify_gates(result):
                problems.append("corrupted expected payload passed the restart check")
            # A manifest claiming a newer acked version than was ever sent.
            with open(manifest) as f:
                rows = [l.split() for l in f if l.strip()]
            with open(manifest, "w") as f:
                for rank, lo, hi in rows:
                    f.write("%s %d %d\n" % (rank, int(hi) + 1, int(hi) + 1))
            result = run_json([bins["perfbench_driver"], "verify", "--port", str(server.port),
                               "--manifest", manifest] + workload_flags(w, 7), cpus[1])
            if not verify_gates(result):
                problems.append("stale version passed the restart check")
        finally:
            server.kill()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for p in problems:
        log("SELF-TEST FAILED: " + p)
    log("self-test: %s" % ("ok" if not problems else "%d problems" % len(problems)))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        if args.self_test:
            return self_test()
        if not args.workload:
            ap.error("--workload is required")
        return run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as e:
        log("perfbench: " + str(e))
        return 2
    finally:
        for server in list(Server.live):
            server.kill()


if __name__ == "__main__":
    sys.exit(main())
