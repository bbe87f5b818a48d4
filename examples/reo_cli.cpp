// reo_cli: command-line experiment driver.
//
// Runs one simulation with everything configurable from flags — workload
// (built-in preset or a trace file), protection policy, cache size, chunk
// size, failure/spare schedule — and prints the full report. Examples:
//
//   reo_cli --workload medium --policy reo --reserve 0.2 --cache 0.10
//   reo_cli --workload strong --policy 1-parity --fail 10000:0 --fail 20000:1
//   reo_cli --trace-file my.trace --policy full-repl
//   reo_cli --workload weak --save-trace weak.trace
//   reo_cli stats --stats-format csv       # full telemetry snapshot
//   reo_cli --fail 2000:0 --trace-out run.json --events-out run.events
//   reo_cli --data-dir /var/lib/reo ...    # durable simulation state
//   reo_cli recover-stats --data-dir /var/lib/reo   # inspect a crash image
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "common/file_util.h"
#include "common/flags.h"
#include "persist/persistence.h"
#include "sim/cache_simulator.h"
#include "telemetry/metric_registry.h"
#include "trace/chrome_trace.h"
#include "workload/medisyn.h"
#include "workload/trace_io.h"

using namespace reo;

namespace {

/// `recover-stats`: runs crash recovery against a data dir and reports what
/// replay found — straight from the persist.* metrics the manager publishes.
/// Recovery is idempotent but not read-only (it truncates torn tails and
/// reclaims dead segments), so point it at a stopped server's directory.
int RecoverStats(const PersistenceConfig& cfg) {
  auto opened = PersistenceManager::Open(cfg);
  if (!opened.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 opened.status().to_string().c_str());
    return 1;
  }
  PersistenceManager& p = **opened;
  MetricRegistry registry;
  p.AttachTelemetry(registry);
  MetricSnapshot snap = registry.Snapshot();
  auto gauge = [&snap](const char* name) -> double {
    const MetricSnapshot::Entry* e = snap.Find(name);
    return e != nullptr ? e->value : 0.0;
  };
  const ReplayStats& rs = p.replay_stats();
  std::printf("recovery of %s:\n", cfg.data_dir.c_str());
  std::printf("  checkpoint: %s (%llu objects)\n",
              rs.checkpoint_loaded ? "loaded" : "none",
              static_cast<unsigned long long>(rs.checkpoint_objects));
  std::printf("  replay: %.0f journal records in %.0f us\n",
              gauge("persist.replay.records"),
              gauge("persist.replay.duration_us"));
  std::printf("  live objects per class: 0=%.0f 1=%.0f 2=%.0f 3=%.0f\n",
              gauge("persist.replay.class0_objects"),
              gauge("persist.replay.class1_objects"),
              gauge("persist.replay.class2_objects"),
              gauge("persist.replay.class3_objects"));
  std::printf("  torn-tail truncations: %.0f\n",
              gauge("persist.replay.torn_tail_truncations"));
  std::printf("  invalid data locations dropped: %.0f\n",
              gauge("persist.replay.invalid_locations"));
  std::printf("  dead segments reclaimed: %.0f\n",
              gauge("persist.replay.gc_segments"));
  std::printf("  live: %llu objects, %llu bytes; recovered H_hot %.3f\n",
              static_cast<unsigned long long>(p.live_objects()),
              static_cast<unsigned long long>(p.live_bytes()),
              p.recovered_h_hot());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  MediSynConfig workload = MediumLocalityConfig();
  std::string trace_file, save_trace;
  bool recover_stats = false;
  bool dump_stats = false;
  bool csv = false;
  std::string stats_out, trace_out, events_out;
  double write_ratio = 0.0;
  SimulationConfig cfg;
  cfg.policy = {.mode = ProtectionMode::kReo, .reo_reserve_fraction = 0.2};
  cfg.cache_fraction = 0.10;
  cfg.chunk_logical_bytes = 64 * 1024;
  cfg.scale_shift = 7;

  // --fail / --spare REQ:DEV; the device is checked against --devices once
  // every flag is in.
  auto device_event = [](std::vector<DeviceEvent>* out) -> FlagSet::Parser {
    return [out](std::string_view v) {
      size_t colon = v.find(':');
      std::optional<uint64_t> req = ParseUint(v.substr(0, colon));
      std::optional<uint64_t> dev = ParseUint(
          colon == v.npos ? "" : v.substr(colon + 1), 0, kMaxDevices - 1);
      if (!req || !dev) return FlagSet::Wants("REQ:DEV, two integers", v);
      out->push_back({*req, static_cast<DeviceIndex>(*dev)});
      return std::string();
    };
  };

  FlagSet flags;
  flags.Positional("stats|recover-stats",
                   "stats: print the end-of-run telemetry snapshot;\n"
                   "recover-stats: replay --data-dir, report, and exit",
                   [&](std::string_view v) {
                     if (v == "stats") {
                       dump_stats = true;
                     } else if (v == "recover-stats") {
                       recover_stats = true;
                     } else {
                       return FlagSet::Wants("stats|recover-stats", v);
                     }
                     return std::string();
                   },
                   /*required=*/false);
  flags.Choice("--workload", "weak|medium|strong",
               "built-in MediSyn preset (default medium)", &workload,
               [](std::string_view v, MediSynConfig* wl) {
                 if (v == "weak") *wl = WeakLocalityConfig();
                 else if (v == "medium") *wl = MediumLocalityConfig();
                 else if (v == "strong") *wl = StrongLocalityConfig();
                 else return false;
                 return true;
               });
  flags.String("--trace-file", "PATH", "load a trace file instead",
               &trace_file);
  flags.String("--save-trace", "PATH",
               "write the workload to a trace file and exit", &save_trace);
  flags.Real("--write-ratio", "F", "mix writes into the preset", &write_ratio,
             0.0, 1.0);
  flags.Choice("--policy", "reo|0-parity|1-parity|2-parity|full-repl",
               "protection policy (default reo)", &cfg.policy.mode,
               ParseProtectionMode);
  flags.Real("--reserve", "F", "Reo redundancy reserve fraction (default 0.2)",
             &cfg.policy.reo_reserve_fraction, 0.0, 1.0);
  flags.Real("--cache", "F", "cache size / dataset bytes (default 0.10)",
             &cfg.cache_fraction, 0.0, 1.0);
  flags.Uint("--chunk-kb", "N", "chunk size in KiB (default 64)",
             &cfg.chunk_logical_bytes, {.min = 1, .unit = kKiB});
  flags.Uint("--scale-shift", "N", "data-plane scale (default 7)",
             &cfg.scale_shift, {.max = kMaxScaleShift});
  flags.Uint("--devices", "N", "flash devices (default 5)", &cfg.num_devices,
             {.min = 1, .max = kMaxDevices});
  flags.Value("--fail", "REQ:DEV", "inject failure (repeatable)",
              device_event(&cfg.failures), /*repeatable=*/true);
  flags.Value("--spare", "REQ:DEV", "insert spare (repeatable)",
              device_event(&cfg.spares), /*repeatable=*/true);
  flags.Value("--fault-spec", "PATH",
              "JSON fault-injection spec (src/fault/fault_spec.h)",
              FaultSpecFlag(&cfg.faults));
  flags.Uint("--scrub-every", "N", "full scrub pass every N requests",
             &cfg.scrub_interval_requests);
  flags.Uint("--dram-mb", "N",
             "DRAM admission tier in MiB (default 0: off)",
             &cfg.admission.dram_bytes, {.unit = kMiB});
  flags.Choice("--admission", "all|flashiness|credit",
               "flash-admission policy (default all)", &cfg.admission.policy,
               ParseAdmissionPolicy);
  flags.Uint("--flash-write-budget", "MBPS",
             "write-credit budget in MiB/s (default 64)",
             &cfg.admission.flash_write_budget_bps, {.unit = kMiB});
  flags.Switch("--failslow-demote", "demote devices flagged fail-slow",
               &cfg.cache.failslow_demote);
  flags.Switch("--warmup", "unmeasured warm-up pass first", &cfg.warmup_pass);
  flags.Switch("--verify", "CRC-verify every hit", &cfg.cache.verify_hits);
  flags.Switch("--stats", "same as stats", &dump_stats);
  flags.Choice("--stats-format", "json|csv", "snapshot format (default json)",
               &csv, [](std::string_view v, bool* is_csv) {
                 *is_csv = v == "csv";
                 return v == "json" || v == "csv";
               });
  flags.String("--stats-out", "PATH",
               "write the snapshot to a file (atomic); implies stats",
               &stats_out);
  flags.String("--trace-out", "PATH", "write a Chrome/Perfetto trace JSON",
               &trace_out);
  flags.String("--events-out", "PATH",
               "write the event log + recovery timeline", &events_out);
  flags.Uint("--trace-sample", "N", "trace 1 in N requests (default 1)",
             &cfg.tracer.sample_every, {.min = 1});
  flags.String("--data-dir", "PATH",
               "durable state (data log, journal, checkpoints)",
               &cfg.persistence.data_dir);
  flags.Switch("--wire", "route OSD commands over the wire transport",
               &cfg.wire_transport);
  // A slower link overflows the virtual clock on large objects.
  flags.Real("--link-gbps", "F",
             "modeled link bandwidth in Gbit/s (default 10)", &cfg.net.gbps,
             1e-3, std::numeric_limits<double>::max());
  // rtt_ns, a uint64_t, must hold the value in ns.
  double rtt_us = 0.0;
  flags.Real("--link-rtt-us", "F",
             "modeled link round-trip in microseconds (default 100)", &rtt_us,
             0.0, 1e16);
  flags.ParseOrExit(argc, argv);
  if (flags.Given("--write-ratio")) workload.write_ratio = write_ratio;
  if (flags.Given("--link-rtt-us")) {
    cfg.net.rtt_ns = static_cast<SimTime>(rtt_us * kNsPerUs);
  }
  if (!stats_out.empty()) dump_stats = true;
  cfg.enable_tracing = !trace_out.empty() || !events_out.empty();
  for (auto [flag, events] : {std::pair{"--fail", &cfg.failures},
                              std::pair{"--spare", &cfg.spares}}) {
    for (const DeviceEvent& ev : *events) {
      if (ev.device < cfg.num_devices) continue;
      std::fprintf(stderr, "reo_cli: %s %llu:%u names a device that --devices"
                   " %zu lacks\n", flag,
                   static_cast<unsigned long long>(ev.at_request), ev.device,
                   cfg.num_devices);
      return 2;
    }
  }

  if (recover_stats) {
    if (!cfg.persistence.enabled()) {
      std::fprintf(stderr, "recover-stats requires --data-dir\n");
      return 2;
    }
    return RecoverStats(cfg.persistence);
  }

  // Build the workload.
  Trace trace;
  if (!trace_file.empty()) {
    auto loaded = LoadTraceFile(trace_file);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", trace_file.c_str(),
                   loaded.status().to_string().c_str());
      return 1;
    }
    trace = std::move(loaded).value();
  } else {
    trace = GenerateMediSyn(workload);
  }

  if (!save_trace.empty()) {
    Status st = SaveTraceFile(trace, save_trace);
    if (!st.ok()) {
      std::fprintf(stderr, "save failed: %s\n", st.to_string().c_str());
      return 1;
    }
    std::printf("wrote %zu requests / %zu objects to %s\n",
                trace.requests.size(), trace.catalog.count(),
                save_trace.c_str());
    return 0;
  }

  cfg.name = std::string(to_string(cfg.policy.mode));
  CacheSimulator sim(trace, cfg);
  auto report = sim.Run();

  std::printf("workload: %s (%zu requests, %zu objects, %.2f GB dataset)\n",
              trace.name.c_str(), trace.requests.size(), trace.catalog.count(),
              static_cast<double>(trace.catalog.TotalBytes()) / 1e9);
  std::printf("%s\n", FormatReportRow(report).c_str());
  if (report.windows.size() > 1) {
    for (const auto& w : report.windows) {
      std::printf("  %-16s hit=%5.1f%%  bw=%7.1f MB/s  lat=%6.2f ms"
                  "  p99=%6.2f ms  (%llu reqs)\n",
                  w.label.c_str(), w.HitRatio() * 100, w.BandwidthMBps(),
                  w.AvgLatencyMs(), w.P99LatencyMs(),
                  static_cast<unsigned long long>(w.requests));
    }
  }
  std::printf("cache: %llu hits / %llu misses, %llu evictions, %llu rebuilds,"
              " %llu flushes, dirty lost %llu\n",
              static_cast<unsigned long long>(report.cache.hits),
              static_cast<unsigned long long>(report.cache.misses),
              static_cast<unsigned long long>(report.cache.evictions),
              static_cast<unsigned long long>(report.cache.rebuilds),
              static_cast<unsigned long long>(report.cache.flushes),
              static_cast<unsigned long long>(report.cache.dirty_lost));
  std::printf("space: eff=%.1f%% (user %.1f MB + redundancy %.1f MB), wear %.4f%%\n",
              report.space.SpaceEfficiency() * 100,
              static_cast<double>(report.space.user_bytes) / 1e6,
              static_cast<double>(report.space.redundancy_bytes) / 1e6,
              report.max_wear * 100);
  if (cfg.admission.dram_bytes > 0) {
    auto counter = [&report](const char* name) -> double {
      const MetricSnapshot::Entry* e = report.telemetry.Find(name);
      return e != nullptr ? e->value : 0.0;
    };
    double dram_total = counter("dram.hits") + counter("dram.misses");
    std::printf("admit (%s): staged %.0f, graduated %.0f, dropped %.0f,"
                " write-through %.0f, bypass %.0f; dram hit %.1f%%\n",
                std::string(to_string(cfg.admission.policy)).c_str(),
                counter("admit.staged"), counter("admit.graduated"),
                counter("admit.dropped"), counter("admit.write_through"),
                counter("admit.bypass"),
                dram_total > 0 ? counter("dram.hits") / dram_total * 100 : 0.0);
  }
  if (!cfg.faults.empty()) {
    auto counter = [&report](const char* name) -> double {
      const MetricSnapshot::Entry* e = report.telemetry.Find(name);
      return e != nullptr ? e->value : 0.0;
    };
    std::printf("faults: %.0f injected; crc detected %.0f, repaired %.0f"
                " (unrepaired %.0f)\n",
                counter("fault.injected"), counter("fault.crc_detected"),
                counter("fault.crc_repairs") + counter("scrub.chunks_repaired"),
                counter("fault.crc_unrepaired"));
    std::printf("        retries %.0f (exhausted %.0f), backend retries %.0f;"
                " scrub passes %.0f; failslow flagged %.0f, demoted %.0f\n",
                counter("retry.attempts"), counter("retry.exhausted"),
                counter("retry.backend.attempts"), counter("scrub.passes"),
                counter("failslow.flagged"), counter("failslow.demotions"));
  }
  if (dump_stats) {
    std::string snapshot =
        csv ? report.telemetry.ToCsv() : report.telemetry.ToJson();
    if (!stats_out.empty()) {
      Status st = WriteFileAtomic(stats_out, snapshot);
      if (!st.ok()) {
        std::fprintf(stderr, "stats write failed: %s\n", st.to_string().c_str());
        return 1;
      }
      std::printf("telemetry snapshot -> %s\n", stats_out.c_str());
    } else {
      std::printf("telemetry:\n%s\n", snapshot.c_str());
    }
  }
  if (cfg.enable_tracing) {
    std::printf("trace: %llu/%llu requests sampled, %llu spans (%llu dropped),"
                " %llu events\n",
                static_cast<unsigned long long>(report.trace.traces_sampled),
                static_cast<unsigned long long>(report.trace.requests_seen),
                static_cast<unsigned long long>(report.trace.spans_recorded),
                static_cast<unsigned long long>(report.trace.spans_dropped),
                static_cast<unsigned long long>(report.trace.events_logged));
    if (!trace_out.empty()) {
      Status st = WriteFileAtomic(trace_out, ChromeTraceJson(sim.tracer()));
      if (!st.ok()) {
        std::fprintf(stderr, "trace write failed: %s\n", st.to_string().c_str());
        return 1;
      }
      std::printf("chrome trace -> %s (load in ui.perfetto.dev)\n",
                  trace_out.c_str());
    }
    if (!events_out.empty()) {
      std::string text = sim.tracer().events().ToText();
      text += "\n";
      text += TraceReportText(sim.tracer());
      Status st = WriteFileAtomic(events_out, text);
      if (!st.ok()) {
        std::fprintf(stderr, "events write failed: %s\n", st.to_string().c_str());
        return 1;
      }
      std::printf("event log -> %s\n", events_out.c_str());
    }
  }
  return 0;
}
