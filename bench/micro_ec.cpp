// Microbenchmarks: GF(256) kernels and Reed-Solomon encode / reconstruct
// throughput across the stripe geometries Reo uses (google-benchmark).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "ec/gf256.h"
#include "ec/rs_code.h"

namespace {

using reo::Pcg32;
using reo::RsCode;

std::vector<std::vector<uint8_t>> RandomChunks(size_t n, size_t len) {
  Pcg32 rng(42);
  std::vector<std::vector<uint8_t>> chunks(n, std::vector<uint8_t>(len));
  for (auto& c : chunks) {
    for (auto& b : c) b = static_cast<uint8_t>(rng.Next());
  }
  return chunks;
}

void BM_GfMulAcc(benchmark::State& state) {
  size_t len = static_cast<size_t>(state.range(0));
  auto bufs = RandomChunks(2, len);
  for (auto _ : state) {
    reo::gf256::MulAcc(bufs[0], bufs[1], 0x57);
    benchmark::DoNotOptimize(bufs[0].data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(len));
}
BENCHMARK(BM_GfMulAcc)->Arg(1024)->Arg(64 * 1024)->Arg(1024 * 1024);

// Pinned to the portable reference kernel so the SIMD speedup in
// BM_GfMulAcc has an in-tree denominator.
void BM_GfMulAccScalar(benchmark::State& state) {
  size_t len = static_cast<size_t>(state.range(0));
  auto bufs = RandomChunks(2, len);
  for (auto _ : state) {
    reo::gf256::MulAccScalar(bufs[0], bufs[1], 0x57);
    benchmark::DoNotOptimize(bufs[0].data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(len));
}
BENCHMARK(BM_GfMulAccScalar)->Arg(1024)->Arg(64 * 1024)->Arg(1024 * 1024);

void BM_GfMulBuf(benchmark::State& state) {
  size_t len = static_cast<size_t>(state.range(0));
  auto bufs = RandomChunks(2, len);
  for (auto _ : state) {
    reo::gf256::MulBuf(bufs[0], bufs[1], 0x57);
    benchmark::DoNotOptimize(bufs[0].data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(len));
}
BENCHMARK(BM_GfMulBuf)->Arg(1024)->Arg(64 * 1024);

void BM_GfMulBufScalar(benchmark::State& state) {
  size_t len = static_cast<size_t>(state.range(0));
  auto bufs = RandomChunks(2, len);
  for (auto _ : state) {
    reo::gf256::MulBufScalar(bufs[0], bufs[1], 0x57);
    benchmark::DoNotOptimize(bufs[0].data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(len));
}
BENCHMARK(BM_GfMulBufScalar)->Arg(1024)->Arg(64 * 1024);

/// 64 KiB chunks through one kernel tier (gf256::Tier); tiers the CPU
/// lacks report an error row.
void RsEncode(benchmark::State& state, reo::gf256::Tier tier) {
  if (!reo::gf256::HasTier(tier)) {
    state.SkipWithError("CPU lacks this tier");
    return;
  }
  size_t m = static_cast<size_t>(state.range(0));
  size_t k = static_cast<size_t>(state.range(1));
  size_t len = 64 * 1024;
  RsCode code(m, k);
  auto data = RandomChunks(m, len);
  std::vector<std::vector<uint8_t>> parity(k, std::vector<uint8_t>(len));
  std::vector<std::span<const uint8_t>> ds(data.begin(), data.end());
  std::vector<std::span<uint8_t>> ps(parity.begin(), parity.end());
  for (auto _ : state) {
    code.Encode(ds, ps, tier);
    benchmark::DoNotOptimize(parity[0].data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(m * len));
}

void BM_RsEncodeCauchy(benchmark::State& state) {
  size_t m = static_cast<size_t>(state.range(0));
  size_t k = static_cast<size_t>(state.range(1));
  size_t len = 64 * 1024;
  RsCode code(m, k, reo::RsConstruction::kCauchy);
  auto data = RandomChunks(m, len);
  std::vector<std::vector<uint8_t>> parity(k, std::vector<uint8_t>(len));
  std::vector<std::span<const uint8_t>> ds(data.begin(), data.end());
  std::vector<std::span<uint8_t>> ps(parity.begin(), parity.end());
  for (auto _ : state) {
    code.Encode(ds, ps);
    benchmark::DoNotOptimize(parity[0].data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(m * len));
}
BENCHMARK(BM_RsEncodeCauchy)->Args({4, 1})->Args({3, 2});

void RsReconstruct(benchmark::State& state, reo::gf256::Tier tier) {
  if (!reo::gf256::HasTier(tier)) {
    state.SkipWithError("CPU lacks this tier");
    return;
  }
  size_t m = static_cast<size_t>(state.range(0));
  size_t k = static_cast<size_t>(state.range(1));
  size_t erased = static_cast<size_t>(state.range(2));
  size_t len = 64 * 1024;
  RsCode code(m, k);
  auto data = RandomChunks(m, len);
  std::vector<std::vector<uint8_t>> parity(k, std::vector<uint8_t>(len));
  std::vector<std::span<const uint8_t>> ds(data.begin(), data.end());
  std::vector<std::span<uint8_t>> ps(parity.begin(), parity.end());
  code.Encode(ds, ps);

  // Erase the first `erased` data fragments; decode from the rest.
  std::vector<std::pair<size_t, std::span<const uint8_t>>> present;
  for (size_t f = erased; f < m; ++f) present.emplace_back(f, data[f]);
  for (size_t p = 0; p < k; ++p) present.emplace_back(m + p, parity[p]);
  std::vector<size_t> missing;
  for (size_t f = 0; f < erased; ++f) missing.push_back(f);
  std::vector<std::vector<uint8_t>> out(erased, std::vector<uint8_t>(len));
  std::vector<std::span<uint8_t>> os(out.begin(), out.end());

  for (auto _ : state) {
    benchmark::DoNotOptimize(code.Reconstruct(present, missing, os, tier).ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(erased * len));
}

// Per tier, the geometries Reo uses on a 5-device array (3+2 and 4+1 full
// stripes, 1+2 for a one-chunk class-2 object) and two wider arrays.
int RegisterTiers() {
  using reo::gf256::Tier;
  for (Tier tier : {Tier::kScalar, Tier::kSsse3, Tier::kGfni}) {
    std::string suffix = std::string("/") + reo::gf256::TierName(tier);
    benchmark::RegisterBenchmark(("BM_RsEncode" + suffix).c_str(),
                                 [tier](benchmark::State& s) { RsEncode(s, tier); })
        ->Args({3, 2})->Args({1, 2})->Args({4, 1})->Args({8, 2})->Args({10, 4});
    benchmark::RegisterBenchmark(("BM_RsReconstruct" + suffix).c_str(),
                                 [tier](benchmark::State& s) { RsReconstruct(s, tier); })
        ->Args({3, 2, 1})->Args({3, 2, 2})->Args({1, 2, 1})->Args({4, 1, 1});
  }
  return 0;
}
const int kRegistered = RegisterTiers();

}  // namespace
