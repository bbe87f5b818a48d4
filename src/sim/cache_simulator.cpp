#include "sim/cache_simulator.h"

#include <algorithm>
#include <cstdio>

namespace reo {

CacheSimulator::CacheSimulator(const Trace& trace, SimulationConfig config)
    : trace_(trace), config_(std::move(config)), tracer_(config_.tracer) {
  for (const auto* events : {&config_.failures, &config_.spares}) {
    for (const DeviceEvent& e : *events) {
      REO_CHECK(e.device < config_.num_devices);
    }
  }
  uint64_t dataset = trace_.catalog.TotalBytes();

  NodeStackConfig sc;
  sc.policy = config_.policy;
  sc.num_devices = config_.num_devices;
  sc.capacity_bytes = static_cast<uint64_t>(config_.cache_fraction *
                                            static_cast<double>(dataset));
  sc.chunk_logical_bytes = config_.chunk_logical_bytes;
  sc.scale_shift = config_.scale_shift;
  sc.device = config_.device;
  sc.admission = config_.admission;
  sc.faults = config_.faults;
  sc.failslow = config_.failslow;
  sc.failslow_demote = config_.failslow_demote;
  sc.persistence = config_.persistence;
  NodeStackSinks sinks{.registry = &telemetry_};
  if (config_.enable_tracing) {
    sinks.events = &tracer_.events();
    sinks.tracer = &tracer_;
  }
  auto stack = NodeStack::Build(sc, 0, 1, sinks);
  // Simulator runs treat an unopenable data dir as a configuration error;
  // the REO_CHECK keeps misconfigured benches from silently running
  // without the durability they asked for.
  REO_CHECK(stack.ok());
  stack_ = std::move(*stack);
  NodeStack& n = stack_;

  backend_ = std::make_unique<BackendStore>(config_.hdd, config_.net);
  if (n.injector) backend_->AttachFaults(n.injector.get());

  // The manager speaks to the target through the modeled wire when asked,
  // else in-process.
  if (config_.wire_transport) {
    transport_ = std::make_unique<OsdTransport>(*n.target, config_.net);
  }
  OsdSession& session =
      transport_ ? static_cast<OsdSession&>(*transport_) : *n.target;
  cache_ = std::make_unique<CacheManager>(session, *n.plane, *n.failure,
                                          *backend_, config_.cache);
  if (n.persist) cache_->AttachPersistence(n.persist.get());
  // Graduating objects classify from observed hotness, not the staged
  // cold-start guess.
  if (n.admission) cache_->AttachAdmission(*n.admission);

  cache_->AttachTelemetry(telemetry_);
  if (transport_) transport_->AttachTelemetry(telemetry_);
  if (config_.enable_tracing) {
    cache_->AttachTracing(tracer_);  // and the backend's
    if (transport_) transport_->AttachTracing(tracer_);
    sim_ev_ = &tracer_.events();
  }

  for (uint32_t i = 0; i < trace_.catalog.count(); ++i) {
    uint64_t logical = trace_.catalog.sizes[i];
    backend_->RegisterObject(ObjectCatalog::IdFor(i), logical,
                             n.stripes->PhysicalSize(logical));
  }
  cache_->Initialize(clock_.now());
}

CacheSimulator::~CacheSimulator() = default;

void CacheSimulator::ReplayUnmeasured() {
  for (const Request& req : trace_.requests) {
    ObjectId id = ObjectCatalog::IdFor(req.object);
    uint64_t size = trace_.catalog.sizes[req.object];
    RequestResult r = req.is_write ? cache_->Put(id, size, clock_.now())
                                   : cache_->Get(id, size, clock_.now());
    clock_.Advance(r.latency);
  }
}

RunReport CacheSimulator::Run() {
  if (config_.warmup_pass) ReplayUnmeasured();

  MetricsCollector metrics;
  metrics.StartWindow("0-failures", clock_.now());
  const SimTime measure_start = clock_.now();
  server_free_ = clock_.now();

  size_t next_failure = 0;
  size_t next_spare = 0;
  size_t failed_so_far = 0;
  uint64_t probe_until = 0;  // request index ending the current probe window

  for (uint64_t i = 0; i < trace_.requests.size(); ++i) {
    while (next_failure < config_.failures.size() &&
           config_.failures[next_failure].at_request == i) {
      Emit(sim_ev_, clock_.now(), EventSeverity::kWarn, "sim.fail_injected",
           "scripted device failure",
           {{"device", std::to_string(config_.failures[next_failure].device)},
            {"request", std::to_string(i)}});
      stack_.failure->OnDeviceFailure(config_.failures[next_failure].device,
                                      clock_.now());
      ++failed_so_far;
      char label[48];
      if (config_.probe_window_requests > 0) {
        std::snprintf(label, sizeof(label), "%zu-failures-early", failed_so_far);
        probe_until = i + config_.probe_window_requests;
      } else {
        std::snprintf(label, sizeof(label), "%zu-failures", failed_so_far);
      }
      metrics.StartWindow(label, clock_.now());
      ++next_failure;
    }
    if (probe_until != 0 && i == probe_until) {
      char label[48];
      std::snprintf(label, sizeof(label), "%zu-failures", failed_so_far);
      metrics.StartWindow(label, clock_.now());
      probe_until = 0;
    }
    while (next_spare < config_.spares.size() &&
           config_.spares[next_spare].at_request == i) {
      Emit(sim_ev_, clock_.now(), EventSeverity::kInfo, "sim.spare_injected",
           "scripted spare insertion",
           {{"device", std::to_string(config_.spares[next_spare].device)},
            {"request", std::to_string(i)}});
      stack_.failure->OnSpareInserted(config_.spares[next_spare].device,
                                      clock_.now());
      ++next_spare;
    }

    const Request& req = trace_.requests[i];
    ObjectId id = ObjectCatalog::IdFor(req.object);
    uint64_t size = trace_.catalog.sizes[req.object];

    // Closed loop: the next request starts when the previous finished.
    // Open loop: it arrives on schedule and may queue behind the server.
    SimTime arrival = clock_.now();
    SimTime start = arrival;
    if (config_.arrival_interval_ns > 0) {
      arrival = measure_start + i * config_.arrival_interval_ns;
      start = std::max(arrival, server_free_);
    }
    RequestResult r = req.is_write ? cache_->Put(id, size, start)
                                   : cache_->Get(id, size, start);
    server_free_ = start + r.latency;
    SimTime observed = server_free_ - arrival;  // includes queueing
    clock_.AdvanceTo(server_free_);
    metrics.Record(r.hit, r.is_write, r.bytes, observed, clock_.now());

    // Periodic scrubbing: find latent corruption while redundancy can
    // still repair it (the scrub itself charges device time).
    if (config_.scrub_interval_requests > 0 &&
        (i + 1) % config_.scrub_interval_requests == 0) {
      auto scrub = stack_.failure->RunScrub(clock_.now());
      server_free_ = std::max(server_free_, scrub.complete);
      clock_.AdvanceTo(server_free_);
    }
  }
  metrics.Finish(clock_.now());

  RunReport report;
  report.name = config_.name;
  report.total = metrics.total();
  report.windows = metrics.windows();
  report.dataset_bytes = trace_.catalog.TotalBytes();
  report.cache = cache_->stats();
  report.rebuilds = stack_.failure->rebuilds();
  report.space = stack_.stripes->Space();
  report.osd = stack_.target->stats();
  report.max_wear = stack_.array->MaxWearFraction();
  report.raw_capacity_bytes = stack_.array->total_capacity_bytes();
  report.telemetry = telemetry_.Snapshot();
  report.trace = tracer_.Stats();
  return report;
}

std::string FormatReportRow(const RunReport& report) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%-18s hit=%5.1f%%  bw=%7.1f MB/s  lat=%6.2f ms  eff=%5.1f%%",
                report.name.c_str(), report.total.HitRatio() * 100.0,
                report.total.BandwidthMBps(), report.total.AvgLatencyMs(),
                report.space.SpaceEfficiency() * 100.0);
  return buf;
}

}  // namespace reo
