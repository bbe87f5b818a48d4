#include "core/node_stack.h"

#include <algorithm>
#include <string>

namespace reo {

Result<NodeStack> NodeStack::Build(const NodeStackConfig& config, size_t index,
                                   size_t count, const NodeStackSinks& sinks) {
  REO_CHECK(index < count);
  NodeStack s;
  s.capacity_bytes = config.capacity_bytes / count;

  // Durable state first: opening it (crash recovery included) is the only
  // step that can fail.
  if (config.persistence.enabled()) {
    PersistenceConfig pc = config.persistence;
    if (count > 1) pc.data_dir += "/shard" + std::to_string(index);
    auto opened = PersistenceManager::Open(pc);
    if (!opened.ok()) return opened.status();
    s.persist = std::move(*opened);
  }

  FlashDeviceConfig dev = config.device;
  dev.capacity_bytes =
      std::max<uint64_t>(s.capacity_bytes, 4 * config.chunk_logical_bytes);
  s.array = std::make_unique<FlashArray>(config.num_devices, dev);
  StripeManagerConfig smc;
  smc.chunk_logical_bytes = config.chunk_logical_bytes;
  smc.scale_shift = config.scale_shift;
  smc.capacity_limit_bytes = s.capacity_bytes;
  s.stripes = std::make_unique<StripeManager>(*s.array, smc);
  s.plane = std::make_unique<ReoDataPlane>(*s.stripes,
                                           RedundancyPolicy(config.policy));
  if (s.persist) s.plane->AttachPersistence(s.persist.get());

  // DRAM admission tier: clean writes stage in DRAM and reach flash only
  // when the admission policy says the eviction earned a flash write.
  AdmissionConfig admission = config.admission;
  admission.dram_bytes /= count;
  if (admission.dram_bytes > 0) {
    s.admission = std::make_unique<AdmissionTier>(admission);
    s.plane->AttachAdmission(*s.admission);
  }
  s.target = std::make_unique<OsdTarget>(*s.plane);

  // Cluster mode: this node's slice of the cluster's owner hints, which
  // also recognizes refetch arrivals.
  if (config.node_id) {
    s.cluster = std::make_unique<ClusterDirectory>(*config.node_id);
    s.target->AttachCluster(*s.cluster);
  }

  // Deterministic fault injection into the device layer (and the journal):
  // per-site seeded streams reproduce the exact fault sequence, and the
  // retry backoff jitter draws from the same seed.
  if (!config.faults.empty()) {
    FaultSpec spec = config.faults;
    spec.seed += index;
    s.injector = std::make_unique<FaultInjector>(spec);
    s.failslow = std::make_unique<FailSlowDetector>(
        static_cast<uint32_t>(config.num_devices), config.failslow);
    s.array->AttachFaults(s.injector.get(), s.failslow.get());
    if (s.persist) s.persist->AttachFaults(s.injector.get());
    s.plane->ConfigureRetry(s.plane->retry_policy(), spec.seed);
  }
  s.failure = std::make_unique<FailurePlane>(*s.plane, s.failslow.get(),
                                             config.failslow_demote);

  if (MetricRegistry* reg = sinks.registry) {
    s.array->AttachTelemetry(*reg);
    s.plane->AttachTelemetry(*reg);  // and the stripe manager's
    s.failure->AttachTelemetry(*reg);
    s.target->AttachTelemetry(*reg);
    if (s.admission) s.admission->AttachTelemetry(*reg);
    if (s.cluster) s.cluster->AttachTelemetry(*reg);
    if (s.injector) s.injector->AttachTelemetry(*reg);
    if (s.failslow) s.failslow->AttachTelemetry(*reg);
    if (s.persist) s.persist->AttachTelemetry(*reg);
  }
  if (EventLog* ev = sinks.events) {
    s.plane->AttachEvents(*ev);  // and the stripe manager's
    s.failure->AttachEvents(*ev);
    if (s.admission) s.admission->AttachEvents(*ev);
    if (s.cluster) s.cluster->AttachEvents(*ev);
    if (s.injector) s.injector->AttachEvents(*ev);
    if (s.failslow) s.failslow->AttachEvents(*ev);
    if (s.persist) s.persist->AttachEvents(*ev);
  }
  if (Tracer* tracer = sinks.tracer) {
    s.plane->AttachTracing(*tracer);  // reaches the stripes and every device
    s.failure->AttachTracing(*tracer);
    s.target->AttachTracing(*tracer);
  }
  return s;
}

}  // namespace reo
