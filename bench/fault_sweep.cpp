// Fault sweep: reliability and overhead of each protection policy under
// injected latent sector corruption (with periodic scrubbing) and
// transient flash I/O errors. Companion to the fault-injection subsystem
// (DESIGN.md "Fault model & partial-failure handling"): the correctness
// column — verify failures — must read 0 for every configuration; what
// varies is how much repair work and how many clean-miss refetches each
// policy needs to get there.
#include "figure_common.h"

using namespace reo;
using namespace reo::bench;

namespace {

double Metric(const RunReport& r, const char* name) {
  const auto* e = r.telemetry.Find(name);
  return e != nullptr ? e->value : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  TraceArgs trace_args = ParseTraceArgs(argc, argv);

  MediSynConfig wl = MediumLocalityConfig();
  wl.num_requests = 20000;  // trimmed sweep; shapes are stable
  auto trace = GenerateMediSyn(wl);

  const std::vector<Config> configs{
      {"Reo-20%", ProtectionMode::kReo, 0.20},
      {"2-parity", ProtectionMode::kUniform2, 0.0},
      {"1-parity", ProtectionMode::kUniform1, 0.0},
      {"0-parity", ProtectionMode::kUniform0, 0.0},
  };
  const std::vector<double> latent_rates{0.0, 0.001, 0.01, 0.05};

  std::printf(
      "Fault sweep: latent corruption rate vs policy "
      "(medium workload, cache 10%%, scrub every 2000 requests)\n\n");
  std::printf("%-10s %8s %8s %8s %9s %9s %11s %9s %8s\n", "Policy", "Latent",
              "Hit(%)", "p99(ms)", "Repairs", "Refetch", "Unrepaired",
              "Retries", "Verify");

  for (const Config& cfg : configs) {
    for (double rate : latent_rates) {
      SimulationConfig sim_cfg = MakeSimConfig(cfg, 0.10);
      sim_cfg.cache.verify_hits = true;
      sim_cfg.scrub_interval_requests = 2000;
      if (rate > 0) {
        sim_cfg.faults.seed = 42;
        sim_cfg.faults.rules.push_back(
            FaultRule{.site = FaultSite::kFlashLatent, .probability = rate});
        // A light sprinkle of transient I/O errors rides along so the
        // retry path is always exercised too.
        sim_cfg.faults.rules.push_back(FaultRule{
            .site = FaultSite::kFlashReadTransient, .probability = 0.002});
      }
      ApplyTracing(sim_cfg, trace_args);
      CacheSimulator sim(trace, sim_cfg);
      RunReport r = sim.Run();

      // Repairs: CRC damage fixed in place, on read or by the scrubber.
      double repairs = Metric(r, "fault.crc_repairs") +
                       Metric(r, "scrub.chunks_repaired");
      // Unprotected copies can't be repaired: they are evicted and
      // refetched from the backend (a clean miss, never a wrong answer).
      double unrepaired = Metric(r, "fault.crc_unrepaired");
      double retries = Metric(r, "retry.attempts");
      double detected = Metric(r, "fault.crc_detected");
      double refetched = detected > repairs ? detected - repairs : 0.0;
      std::printf("%-10s %8.3f %8.1f %8.2f %9.0f %9.0f %11.0f %9.0f %8llu\n",
                  cfg.label.c_str(), rate, r.total.HitRatio() * 100,
                  r.total.P99LatencyMs(), repairs, refetched, unrepaired,
                  retries,
                  static_cast<unsigned long long>(r.cache.verify_failures));
      if (trace_args.enabled() && cfg.mode == ProtectionMode::kReo &&
          rate == latent_rates.back()) {
        ExportTrace(sim, trace_args);
      }
      if (r.cache.verify_failures != 0) {
        std::fprintf(stderr,
                     "FAULT SWEEP FAILED: %s at latent rate %.3f returned "
                     "corrupt data to a client (%llu verify failures)\n",
                     cfg.label.c_str(), rate,
                     static_cast<unsigned long long>(r.cache.verify_failures));
        return 1;
      }
    }
  }
  std::printf(
      "\nAll configurations returned byte-correct data under every fault "
      "rate (verify column is client-observed corruption).\n");
  return 0;
}
