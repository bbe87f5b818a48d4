// reo_server: the Reo cache target as a real network service.
//
// Builds the production stack — flash array, stripe manager,
// differentiated-redundancy data plane, OSD target (NodeStack) — once per
// serving shard, serves the OSD wire protocol over TCP through
// ShardedServer, and on SIGTERM / SIGINT drains gracefully (stop
// accepting, finish in-flight requests, flush, checkpoint, exit).
// Examples:
//
//   reo_server --port 9555
//   reo_server --port 0 --port-file port.txt --stats-out stats.json
//   reo_server --policy 2-parity --devices 8 --capacity-mb 512
//   reo_server --port 9555 --data-dir /var/lib/reo     # durable, restartable
//   reo_server --port 9555 --shards 4                  # multi-threaded
//
// With --shards N the object space is hash-partitioned across N
// independent stacks, each on its own event-loop thread with its own flash
// array, cache state, and (under --data-dir) its own journal in
// data-dir/shardK. One listening port serves all of them; a command
// landing on another shard's connection executes on that connection's
// loop under the owning stack's lock (see src/shard/sharded_server.h).
// --shards 1 (the default) is one loop on the main thread.
#include <signal.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/file_util.h"
#include "common/flags.h"
#include "common/units.h"
#include "core/node_stack.h"
#include "persist/restore.h"
#include "shard/sharded_server.h"
#include "telemetry/metric_registry.h"
#include "telemetry/time_series.h"
#include "trace/event_log.h"
#include "trace/tracer.h"

using namespace reo;

namespace {

ShardedServer* g_server = nullptr;

void HandleShutdownSignal(int) {
  // RequestDrain is async-signal-safe: a flag store plus an eventfd write.
  if (g_server != nullptr) g_server->RequestDrain();
}

}  // namespace

int main(int argc, char** argv) {
  ShardedServerConfig server_cfg;
  NodeStackConfig stack_cfg;
  stack_cfg.policy = {.mode = ProtectionMode::kReo,
                      .reo_reserve_fraction = 0.2};
  size_t num_shards = 1;
  std::string port_file, stats_out, events_out;
  bool telemetry_on = true;
  uint64_t trace_sample = 64;
  uint64_t series_window_ms = 1000;
  size_t series_windows = 300;

  FlagSet flags;
  flags.String("--bind", "ADDR", "listen address (default 127.0.0.1)",
               &server_cfg.bind_address);
  flags.Uint("--port", "N", "listen port; 0 picks an ephemeral one (default 0)",
             &server_cfg.port);
  flags.String("--port-file", "PATH",
               "write the bound port to PATH (for scripts/CI)", &port_file);
  uint32_t node_id = 0;
  flags.Uint("--node-id", "N",
             "cluster node identity: attaches the cluster directory\n"
             "(owner hints, OWNERS, node_id in HEALTH); default none",
             &node_id);
  flags.Uint("--shards", "N",
             "serving shards, one thread and one stack each, over a\n"
             "hash partition of the objects; they split capacity and\n"
             "DRAM, --devices is per shard, and per-stage tracing\n"
             "needs 1 shard (default 1)",
             &num_shards, {.min = 1, .max = kMaxShards});
  flags.Choice("--policy", "reo|0-parity|1-parity|2-parity|full-repl",
               "protection policy (default reo)", &stack_cfg.policy.mode,
               ParseProtectionMode);
  flags.Real("--reserve", "F", "Reo redundancy reserve fraction (default 0.2)",
             &stack_cfg.policy.reo_reserve_fraction, 0.0, 1.0);
  flags.Uint("--devices", "N", "flash devices (default 5)",
             &stack_cfg.num_devices, {.min = 1, .max = kMaxDevices});
  flags.Uint("--capacity-mb", "N", "cache capacity budget in MiB (default 256)",
             &stack_cfg.capacity_bytes, {.unit = kMiB});
  flags.Uint("--chunk-kb", "N", "chunk size in KiB (default 64)",
             &stack_cfg.chunk_logical_bytes, {.min = 1, .unit = kKiB});
  flags.Uint("--scale-shift", "N",
             "physical payload scale (default 0: full bytes)",
             &stack_cfg.scale_shift, {.max = kMaxScaleShift});
  flags.Uint("--max-connections", "N",
             "concurrent connection cap (default 1024)",
             &server_cfg.max_connections, {.min = 1});
  flags.Uint("--idle-timeout-ms", "N",
             "close idle connections; 0 never (default 60000)",
             &server_cfg.idle_timeout_ms);
  flags.String("--stats-out", "PATH",
               "write the telemetry snapshot JSON on exit\n"
               "(multi-shard: the merged cross-shard snapshot)",
               &stats_out);
  flags.String("--events-out", "PATH", "write the event log text on exit",
               &events_out);
  flags.Choice("--telemetry", "on|off",
               "metrics, time series and in-band STATS/SERIES\n"
               "(default on; off leaves HEALTH/EVENTS)",
               &telemetry_on, [](std::string_view v, bool* on) {
                 *on = v == "on";
                 return v == "on" || v == "off";
               });
  flags.Uint("--trace-sample", "N",
             "trace 1 in N requests into the per-stage\n"
             "latency histograms; 0 disables (default 64)",
             &trace_sample);
  flags.Uint("--series-window-ms", "N",
             "time-series window width (default 1000)", &series_window_ms,
             {.min = 1, .max = UINT64_MAX / 1'000'000});
  flags.Uint("--series-windows", "N", "closed windows retained (default 300)",
             &series_windows, {.min = 1});
  flags.String("--data-dir", "PATH",
               "durable state (data log, journal, checkpoints); shard K\n"
               "of several under PATH/shardK; restart recovers in\n"
               "class order 0->1->2->3 (default: in-memory)",
               &stack_cfg.persistence.data_dir);
  flags.Uint("--fsync-batch", "N",
             "group-commit fsync batch, records (default 32)",
             &stack_cfg.persistence.fsync_batch_records);
  flags.Uint("--checkpoint-interval", "N",
             "journal records between checkpoints (default 4096)",
             &stack_cfg.persistence.checkpoint_interval_records);
  flags.Value("--fault-spec", "PATH",
              "JSON fault-injection spec (src/fault/fault_spec.h)",
              FaultSpecFlag(&stack_cfg.faults));
  flags.Uint("--dram-mb", "N",
             "DRAM admission tier in MiB: clean writes stage there and\n"
             "graduate to flash per --admission (default 0: off)",
             &stack_cfg.admission.dram_bytes, {.unit = kMiB});
  flags.Choice("--admission", "all|flashiness|credit",
               "which DRAM evictions earn a flash write (default all)",
               &stack_cfg.admission.policy, ParseAdmissionPolicy);
  flags.Uint("--flash-write-budget", "N",
             "--admission credit's budget, MiB of flash writes per\n"
             "second (default 64)",
             &stack_cfg.admission.flash_write_budget_bps, {.unit = kMiB});
  flags.ParseOrExit(argc, argv);
  if (flags.Given("--node-id")) stack_cfg.node_id = node_id;

  // Per-stage tracing assumes a single-threaded stack; with shards it
  // would need one tracer per shard and per-shard span merge. Off for now.
  bool tracing_on = telemetry_on && trace_sample > 0 && num_shards == 1;

  EventLog events;  // shared: thread-safe, global ticket order across shards
  TimeSeriesRing series(TimeSeriesConfig{
      .window_ns = series_window_ms * 1'000'000, .capacity = series_windows});
  Tracer tracer(TracerConfig{.sample_every = trace_sample});

  // One registry per shard; --telemetry off registers nothing in them.
  std::vector<MetricRegistry> telemetry(num_shards);
  std::vector<MetricRegistry*> registries;
  for (MetricRegistry& r : telemetry) registries.push_back(&r);

  // The production stacks: every byte a client writes lands in a striped
  // flash array under the selected protection policy. Each shard is an
  // independent stack over its hash slice of the object space.
  std::vector<NodeStack> stacks;
  std::vector<ServedShard> shards;
  stacks.reserve(num_shards);
  for (size_t k = 0; k < num_shards; ++k) {
    NodeStackSinks sinks{.registry = telemetry_on ? registries[k] : nullptr,
                         .events = &events,
                         .tracer = tracing_on ? &tracer : nullptr};
    auto built = NodeStack::Build(stack_cfg, k, num_shards, sinks);
    if (!built.ok()) {
      if (built.status().code() == ErrorCode::kCorrupted) {
        // Fail-stop on corrupt durable state: refuse to serve from a state
        // image we cannot trust, and name the offending file so the
        // operator can remove or restore it. Distinct exit code for CI.
        std::fprintf(stderr, "reo_server: corrupt durable state: %s\n",
                     built.status().to_string().c_str());
        return 3;
      }
      std::fprintf(stderr, "persistence open failed: %s\n",
                   built.status().to_string().c_str());
      return 1;
    }
    stacks.push_back(std::move(*built));
    NodeStack& s = stacks.back();
    shards.push_back({.target = s.target.get(),
                      .registry = sinks.registry,
                      .cluster = s.cluster.get(),
                      .persist = s.persist.get()});
    if (!s.persist) continue;
    // Durable state: replay any recovered objects back through the stack
    // in class order, then checkpoint so the next restart starts from a
    // compact image.
    if (s.persist->live_objects() > 0) {
      RestoreReport rr =
          RestoreToTarget(*s.persist, *s.target, s.capacity_bytes, 0, &events);
      std::printf(
          "shard %zu: restored %llu objects (class0=%llu class1=%llu"
          " class2=%llu class3=%llu, dirty_lost=%llu, verify_failures=%llu)"
          " in %llu us\n",
          k, static_cast<unsigned long long>(rr.total_restored()),
          static_cast<unsigned long long>(rr.restored_per_class[0]),
          static_cast<unsigned long long>(rr.restored_per_class[1]),
          static_cast<unsigned long long>(rr.restored_per_class[2]),
          static_cast<unsigned long long>(rr.restored_per_class[3]),
          static_cast<unsigned long long>(rr.dirty_lost),
          static_cast<unsigned long long>(rr.payload_verify_failures),
          static_cast<unsigned long long>(rr.duration_us));
    }
    Status cp = s.persist->Checkpoint(0);
    if (!cp.ok()) {
      std::fprintf(stderr, "startup checkpoint failed: %s\n",
                   cp.to_string().c_str());
      return 1;
    }
  }

  ShardedServer server(shards, server_cfg);
  server.AttachEvents(events);
  // Live observability: per-window time series over the serving metrics,
  // plus the in-band STATS/SERIES admin plane. HEALTH and EVENTS answer
  // even with --telemetry off.
  if (telemetry_on) {
    // One whole-process ring: every column sums the same-named metric
    // across shard registries, so reo_top's ratios stay correct.
    TrackServingDefaults(std::span<MetricRegistry* const>(registries), series,
                         stack_cfg.num_devices);
    server.AttachSeries(series);
  }
  // Per-stage latency attribution: sampled request traces feed
  // stage.<component>.span_us histograms. --trace-sample 0 turns it off.
  if (tracing_on) {
    tracer.AttachStageMetrics(telemetry[0]);
    server.AttachTracing(tracer);
  }
  Status st = server.Listen();
  if (!st.ok()) {
    std::fprintf(stderr, "listen failed: %s\n", st.to_string().c_str());
    return 1;
  }
  if (!port_file.empty()) {
    Status wf =
        WriteFileAtomic(port_file, std::to_string(server.port()) + "\n");
    if (!wf.ok()) {
      std::fprintf(stderr, "port file: %s\n", wf.to_string().c_str());
      return 1;
    }
  }
  std::printf("reo_server listening on %s:%u (%zu shards, policy %s,"
              " %zu devices/shard, %llu MiB budget)\n",
              server_cfg.bind_address.c_str(), server.port(), num_shards,
              std::string(to_string(stack_cfg.policy.mode)).c_str(),
              stack_cfg.num_devices,
              static_cast<unsigned long long>(stack_cfg.capacity_bytes >> 20));
  if (stacks[0].admission) {
    std::printf(
        "dram admission tier: %llu MiB, policy %s\n",
        static_cast<unsigned long long>(stack_cfg.admission.dram_bytes >> 20),
        std::string(to_string(stack_cfg.admission.policy)).c_str());
  }
  std::fflush(stdout);

  g_server = &server;
  struct sigaction sa{};
  sa.sa_handler = HandleShutdownSignal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  signal(SIGPIPE, SIG_IGN);

  server.Run();
  g_server = nullptr;

  ShardedServerStats served = server.stats();
  std::printf("drained: %llu connections served, %llu requests,"
              " %llu bytes in / %llu out\n",
              static_cast<unsigned long long>(served.accepted),
              static_cast<unsigned long long>(served.requests),
              static_cast<unsigned long long>(served.bytes_in),
              static_cast<unsigned long long>(served.bytes_out));
  std::printf("wire errors: %llu frame, %llu crc, %llu decode;"
              " cross-shard: %llu forwarded, %llu executed\n",
              static_cast<unsigned long long>(served.frame_errors),
              static_cast<unsigned long long>(served.crc_errors),
              static_cast<unsigned long long>(served.decode_errors),
              static_cast<unsigned long long>(served.forwarded),
              static_cast<unsigned long long>(served.forward_executed));

  if (!stats_out.empty()) {
    Status wf = WriteFileAtomic(stats_out, server.MergedStats().ToJson());
    if (!wf.ok()) {
      std::fprintf(stderr, "stats write failed: %s\n", wf.to_string().c_str());
      return 1;
    }
    std::printf("telemetry snapshot -> %s\n", stats_out.c_str());
  }
  if (!events_out.empty()) {
    Status wf = WriteFileAtomic(events_out, events.ToText());
    if (!wf.ok()) {
      std::fprintf(stderr, "events write failed: %s\n", wf.to_string().c_str());
      return 1;
    }
    std::printf("event log -> %s\n", events_out.c_str());
  }
  return 0;
}
