// Bounded retry with jittered exponential backoff. RetryTransient is the
// one retry loop: the data plane's flash reads and writes and the cache
// manager's backend fetches run through it. Jitter draws from a
// caller-owned Pcg32 so simulated retries stay reproducible.
#pragma once

#include <cmath>
#include <cstdint>

#include "common/rng.h"
#include "common/sim_clock.h"
#include "common/status.h"

namespace reo {

struct RetryPolicy {
  uint32_t max_attempts = 3;            ///< total tries, including the first
  SimTime backoff_ns = 200 * kNsPerUs;  ///< delay before the first retry
  double backoff_multiplier = 2.0;      ///< growth per subsequent retry
  double jitter_fraction = 0.5;         ///< uniform +/- fraction of the delay
};

/// Backoff before retry number `retry` (0-based: the delay between the
/// first failure and the second attempt is retry 0).
inline SimTime RetryBackoff(const RetryPolicy& policy, uint32_t retry,
                            Pcg32& rng) {
  double base = static_cast<double>(policy.backoff_ns) *
                std::pow(policy.backoff_multiplier, retry);
  double jitter =
      1.0 + policy.jitter_fraction * (2.0 * rng.NextDouble() - 1.0);
  double delay = base * jitter;
  return delay > 0.0 ? static_cast<SimTime>(delay) : SimTime{0};
}

/// The only error class retries may chase. Everything else is either
/// permanent (corruption, missing object) or needs a different response.
inline bool IsRetryable(const Status& status) {
  return status.code() == ErrorCode::kIoError;
}

/// Runs `attempt(t)` until it succeeds, fails with a status IsRetryable
/// rejects, or `policy.max_attempts` tries are spent. Each retry first
/// advances `t` by RetryBackoff (one jitter draw, in retry order). Returns
/// the last try's result, a retryable failure meaning the budget ran out;
/// `t` is then that try's start and `retries` the retries made. A
/// template, not std::function, so the flash paths pay nothing for it.
template <typename Attempt>
auto RetryTransient(const RetryPolicy& policy, Pcg32& rng, SimTime& t,
                    uint32_t& retries, Attempt&& attempt) {
  retries = 0;
  auto result = attempt(t);
  while (!result.ok() && IsRetryable(result.status()) &&
         retries + 1 < policy.max_attempts) {
    t += RetryBackoff(policy, retries, rng);
    ++retries;
    result = attempt(t);
  }
  return result;
}

}  // namespace reo
