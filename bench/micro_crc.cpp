// Microbenchmarks: CRC32C per hardware tier, and the fused copy+CRC pass
// against a CRC followed by a copy (google-benchmark).
//
// Every chunk the flash layer serves goes through Crc32cCopy
// (FlashDevice::ReadSlotInto) and every stored chunk and frame through
// Crc32c, so these are the per-byte costs of the data path. "Cold" variants
// flush the input from the caches before each iteration, as for a chunk that
// was last touched long ago. Tiers the CPU lacks report an error row instead
// of a time.
#include <benchmark/benchmark.h>

#include <cstring>
#include <span>
#include <string>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/crc32c.h"
#include "common/rng.h"

namespace {

using reo::Crc32cTier;

std::vector<uint8_t> RandomBytes(size_t n) {
  reo::Pcg32 rng(42);
  std::vector<uint8_t> out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng.Next());
  return out;
}

/// Evicts `buf` from every cache level (outside the timed region).
void Flush(benchmark::State& state, std::span<const uint8_t> buf) {
#if defined(__x86_64__)
  state.PauseTiming();
  for (size_t i = 0; i < buf.size(); i += 64) _mm_clflush(buf.data() + i);
  _mm_mfence();
  state.ResumeTiming();
#else
  (void)state;
  (void)buf;
#endif
}

constexpr int64_t kSizes[] = {4 << 10, 64 << 10, 1 << 20};

void SetBytes(benchmark::State& state, size_t len) {
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(len));
}

/// The portable table: the in-tree denominator for every tier.
void BM_Crc32cPortable(benchmark::State& state) {
  const auto buf = RandomBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(reo::Crc32cPortable(buf));
  SetBytes(state, buf.size());
}
BENCHMARK(BM_Crc32cPortable)->Arg(4 << 10)->Arg(64 << 10);

void Crc32cAtTier(benchmark::State& state, Crc32cTier tier, bool cold) {
  if (!reo::Crc32cHasTier(tier)) {
    state.SkipWithError("CPU lacks this tier");
    return;
  }
  const auto buf = RandomBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    if (cold) Flush(state, buf);
    benchmark::DoNotOptimize(reo::Crc32c(tier, buf));
  }
  SetBytes(state, buf.size());
}

/// The fused pass, against the dispatched Crc32c of the source then memcpy
/// (a ReadSlot view checked, then copied out). "Cold" flushes the source
/// only, as when a chunk written long ago is read into a buffer in use.
void CopyAndCrc(benchmark::State& state, bool fused, bool cold) {
  const auto src = RandomBytes(static_cast<size_t>(state.range(0)));
  std::vector<uint8_t> dst(src.size());
  for (auto _ : state) {
    if (cold) Flush(state, src);
    if (fused) {
      benchmark::DoNotOptimize(reo::Crc32cCopy(dst, src));
    } else {
      benchmark::DoNotOptimize(reo::Crc32c(src));
      std::memcpy(dst.data(), src.data(), src.size());
    }
    benchmark::ClobberMemory();
  }
  SetBytes(state, src.size());
}

int RegisterAll() {
  for (Crc32cTier tier :
       {Crc32cTier::kSse42, Crc32cTier::kClmul, Crc32cTier::kVpclmul}) {
    for (bool cold : {false, true}) {
      std::string name = std::string("BM_Crc32c/") + reo::Crc32cTierName(tier) +
                         (cold ? "/cold" : "");
      auto* b = benchmark::RegisterBenchmark(
          name.c_str(), [tier, cold](benchmark::State& s) { Crc32cAtTier(s, tier, cold); });
      for (int64_t n : kSizes) b->Arg(n);
    }
  }
  for (bool cold : {false, true}) {
    for (bool fused : {true, false}) {
      std::string name = std::string(fused ? "BM_Crc32cCopy" : "BM_Crc32cThenMemcpy") +
                         (cold ? "/cold" : "");
      auto* b = benchmark::RegisterBenchmark(
          name.c_str(), [fused, cold](benchmark::State& s) { CopyAndCrc(s, fused, cold); });
      for (int64_t n : kSizes) b->Arg(n);
    }
  }
  return 0;
}
const int kRegistered = RegisterAll();

}  // namespace
