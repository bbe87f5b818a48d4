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
#include <cstring>
#include <string>

#include "common/file_util.h"
#include "persist/persistence.h"
#include "sim/cache_simulator.h"
#include "telemetry/metric_registry.h"
#include "trace/chrome_trace.h"
#include "workload/medisyn.h"
#include "workload/trace_io.h"

using namespace reo;

namespace {

void Usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --workload weak|medium|strong   built-in MediSyn preset (default medium)\n"
      "  --trace-file PATH               load a trace file instead\n"
      "  --save-trace PATH               write the workload to a trace file and exit\n"
      "  --write-ratio F                 mix writes into the preset (0..1)\n"
      "  --policy reo|0-parity|1-parity|2-parity|full-repl   (default reo)\n"
      "  --reserve F                     Reo redundancy reserve fraction (default 0.2)\n"
      "  --cache F                       cache size / dataset bytes (default 0.10)\n"
      "  --chunk-kb N                    chunk size in KiB (default 64)\n"
      "  --scale-shift N                 data-plane scale (default 7)\n"
      "  --devices N                     flash devices (default 5)\n"
      "  --fail REQ:DEV                  inject failure (repeatable)\n"
      "  --spare REQ:DEV                 insert spare (repeatable)\n"
      "  --fault-spec PATH               JSON fault-injection spec (see\n"
      "                                  src/fault/fault_spec.h for the format)\n"
      "  --scrub-every N                 full scrub pass every N requests\n"
      "  --dram-mb N                     DRAM admission tier budget in MiB\n"
      "                                  (default 0 = tier disabled)\n"
      "  --admission all|flashiness|credit   flash-admission policy (default all)\n"
      "  --flash-write-budget MBPS       write-credit budget in MiB/s (default 64)\n"
      "  --failslow-demote               demote devices flagged fail-slow\n"
      "  --warmup                        unmeasured warm-up pass first\n"
      "  --verify                        CRC-verify every hit\n"
      "  stats                           dump the end-of-run telemetry snapshot\n"
      "  --stats-format json|csv         snapshot format (default json)\n"
      "  --stats-out PATH                write the snapshot to a file (atomic)\n"
      "  --trace-out PATH                write a Chrome/Perfetto trace JSON\n"
      "  --events-out PATH               write the event log + recovery timeline\n"
      "  --trace-sample N                trace 1 in N requests (default 1)\n"
      "  --data-dir PATH                 durable cache state (data log + journal\n"
      "                                  + checkpoints) under PATH\n"
      "  recover-stats                   run crash recovery on --data-dir and\n"
      "                                  print the replay report, then exit\n"
      "  --wire                          route OSD commands over the wire transport\n"
      "  --link-gbps F                   modeled link bandwidth in Gbit/s (default 10)\n"
      "  --link-rtt-us F                 modeled link round-trip in microseconds (default 100)\n",
      argv0);
}

bool ParseEvent(const char* arg, uint64_t* req, uint32_t* dev) {
  char* end = nullptr;
  *req = std::strtoull(arg, &end, 10);
  if (end == nullptr || *end != ':') return false;
  *dev = static_cast<uint32_t>(std::strtoul(end + 1, &end, 10));
  return end != nullptr && *end == '\0';
}

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
  std::string workload = "medium";
  std::string trace_file, save_trace;
  bool recover_stats = false;
  bool dump_stats = false;
  std::string stats_format = "json";
  std::string stats_out, trace_out, events_out;
  double write_ratio = -1.0;
  SimulationConfig cfg;
  cfg.policy = {.mode = ProtectionMode::kReo, .reo_reserve_fraction = 0.2};
  cfg.cache_fraction = 0.10;
  cfg.chunk_logical_bytes = 64 * 1024;
  cfg.scale_shift = 7;

  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--workload")) {
      workload = next();
    } else if (!std::strcmp(argv[i], "--trace-file")) {
      trace_file = next();
    } else if (!std::strcmp(argv[i], "--save-trace")) {
      save_trace = next();
    } else if (!std::strcmp(argv[i], "--write-ratio")) {
      write_ratio = std::atof(next());
    } else if (!std::strcmp(argv[i], "--policy")) {
      std::string p = next();
      if (p == "reo") cfg.policy.mode = ProtectionMode::kReo;
      else if (p == "0-parity") cfg.policy.mode = ProtectionMode::kUniform0;
      else if (p == "1-parity") cfg.policy.mode = ProtectionMode::kUniform1;
      else if (p == "2-parity") cfg.policy.mode = ProtectionMode::kUniform2;
      else if (p == "full-repl") cfg.policy.mode = ProtectionMode::kFullReplication;
      else {
        std::fprintf(stderr, "unknown policy %s\n", p.c_str());
        return 2;
      }
    } else if (!std::strcmp(argv[i], "--reserve")) {
      cfg.policy.reo_reserve_fraction = std::atof(next());
    } else if (!std::strcmp(argv[i], "--cache")) {
      cfg.cache_fraction = std::atof(next());
    } else if (!std::strcmp(argv[i], "--chunk-kb")) {
      cfg.chunk_logical_bytes = std::strtoull(next(), nullptr, 10) * 1024;
    } else if (!std::strcmp(argv[i], "--scale-shift")) {
      cfg.scale_shift = static_cast<uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (!std::strcmp(argv[i], "--devices")) {
      cfg.num_devices = std::strtoull(next(), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--fail")) {
      FailureEvent ev;
      uint64_t req;
      uint32_t dev;
      if (!ParseEvent(next(), &req, &dev)) {
        std::fprintf(stderr, "--fail expects REQ:DEV\n");
        return 2;
      }
      ev.at_request = req;
      ev.device = dev;
      cfg.failures.push_back(ev);
    } else if (!std::strcmp(argv[i], "--spare")) {
      SpareEvent ev;
      uint64_t req;
      uint32_t dev;
      if (!ParseEvent(next(), &req, &dev)) {
        std::fprintf(stderr, "--spare expects REQ:DEV\n");
        return 2;
      }
      ev.at_request = req;
      ev.device = dev;
      cfg.spares.push_back(ev);
    } else if (!std::strcmp(argv[i], "--fault-spec")) {
      auto spec = LoadFaultSpecFile(next());
      if (!spec.ok()) {
        std::fprintf(stderr, "bad fault spec: %s\n",
                     spec.status().to_string().c_str());
        return 2;
      }
      cfg.faults = std::move(*spec);
    } else if (!std::strcmp(argv[i], "--scrub-every")) {
      cfg.scrub_interval_requests = std::strtoull(next(), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--dram-mb")) {
      cfg.admission.dram_bytes = std::strtoull(next(), nullptr, 10) * kMiB;
    } else if (!std::strcmp(argv[i], "--admission")) {
      const char* p = next();
      if (!ParseAdmissionPolicy(p, &cfg.admission.policy)) {
        std::fprintf(stderr, "unknown admission policy %s\n", p);
        return 2;
      }
    } else if (!std::strcmp(argv[i], "--flash-write-budget")) {
      cfg.admission.flash_write_budget_bps =
          std::strtoull(next(), nullptr, 10) * kMiB;
    } else if (!std::strcmp(argv[i], "--failslow-demote")) {
      cfg.cache.failslow_demote = true;
    } else if (!std::strcmp(argv[i], "recover-stats")) {
      recover_stats = true;
    } else if (!std::strcmp(argv[i], "--data-dir")) {
      cfg.persistence.data_dir = next();
    } else if (!std::strcmp(argv[i], "stats") || !std::strcmp(argv[i], "--stats")) {
      dump_stats = true;
    } else if (!std::strcmp(argv[i], "--stats-format")) {
      stats_format = next();
      if (stats_format != "json" && stats_format != "csv") {
        std::fprintf(stderr, "--stats-format expects json or csv\n");
        return 2;
      }
    } else if (!std::strcmp(argv[i], "--stats-out")) {
      stats_out = next();
      dump_stats = true;
    } else if (!std::strcmp(argv[i], "--trace-out")) {
      trace_out = next();
      cfg.enable_tracing = true;
    } else if (!std::strcmp(argv[i], "--events-out")) {
      events_out = next();
      cfg.enable_tracing = true;
    } else if (!std::strcmp(argv[i], "--trace-sample")) {
      cfg.tracer.sample_every = std::strtoull(next(), nullptr, 10);
      if (cfg.tracer.sample_every == 0) cfg.tracer.sample_every = 1;
    } else if (!std::strcmp(argv[i], "--wire")) {
      cfg.wire_transport = true;
    } else if (!std::strcmp(argv[i], "--link-gbps")) {
      cfg.net.gbps = std::atof(next());
      if (cfg.net.gbps <= 0) {
        std::fprintf(stderr, "--link-gbps expects a positive bandwidth\n");
        return 2;
      }
    } else if (!std::strcmp(argv[i], "--link-rtt-us")) {
      cfg.net.rtt_ns = static_cast<SimTime>(std::atof(next()) * kNsPerUs);
    } else if (!std::strcmp(argv[i], "--warmup")) {
      cfg.warmup_pass = true;
    } else if (!std::strcmp(argv[i], "--verify")) {
      cfg.cache.verify_hits = true;
    } else if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      Usage(argv[0]);
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
    MediSynConfig wl;
    if (workload == "weak") wl = WeakLocalityConfig();
    else if (workload == "medium") wl = MediumLocalityConfig();
    else if (workload == "strong") wl = StrongLocalityConfig();
    else {
      std::fprintf(stderr, "unknown workload %s\n", workload.c_str());
      return 2;
    }
    if (write_ratio >= 0.0) wl.write_ratio = write_ratio;
    trace = GenerateMediSyn(wl);
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
    std::string snapshot = stats_format == "csv" ? report.telemetry.ToCsv()
                                                 : report.telemetry.ToJson();
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
