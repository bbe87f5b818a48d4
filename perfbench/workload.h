// Shared by the load driver and the traced replay: workload knobs, the
// seeded op stream, and the versioned per-rank payloads both sides check.
//
// Payload layout (object_bytes long):
//   [0, 4)   u32 magic "PBPL"
//   [4, 8)   u32 rank
//   [8, 16)  u64 version (0 = the populate write, then one per rewrite)
//   [16, n)  bytes drawn from (seed, rank); identical for every version
// A reader therefore checks identity, version range and content with one
// header parse and one memcmp against the cached base payload.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/object_id.h"
#include "common/rng.h"
#include "common/zipf.h"

namespace perfbench {

inline constexpr uint32_t kPayloadMagic = 0x4C504250;  // "PBPL"
inline constexpr size_t kPayloadHeader = 16;

/// Class-assignment modes beyond a fixed class 0..3.
inline constexpr int kUnclassified = -1;  ///< no SETID: server default class 3
inline constexpr int kClassCycle = 4;     ///< rank r gets class r % 4

struct WorkloadSpec {
  uint32_t objects = 100;
  uint64_t object_bytes = 64 * 1024;
  double write_ratio = 0.3;
  double zipf = 0.9;
  int write_class = kUnclassified;
  uint64_t seed = 1;
};

/// The class populate assigns to `rank`, or kUnclassified.
inline int ClassOfRank(const WorkloadSpec& w, uint32_t rank) {
  if (w.write_class == kClassCycle) return static_cast<int>(rank % 4);
  return w.write_class;
}

/// The class the server stores `rank` at (unclassified objects are class 3).
inline uint8_t StoredClassOfRank(const WorkloadSpec& w, uint32_t rank) {
  int cls = ClassOfRank(w, rank);
  return static_cast<uint8_t>(cls < 0 ? 3 : cls);
}

inline reo::ObjectId IdForRank(uint32_t rank) {
  // Past the exofs reserved metadata oids (0x10000-0x10004).
  return reo::ObjectId{reo::kFirstUserId, reo::kFirstUserId + 0x1000 + rank};
}

/// One request of the open-loop schedule.
struct Op {
  uint64_t at_ns = 0;  ///< due time, relative to the phase start
  uint32_t rank = 0;
  bool write = false;
};

/// Poisson arrivals at `rate` ops/s over `duration_ns`, Zipf-popular ranks,
/// writes with probability write_ratio. `salt` separates the phases of one
/// run so each draws its own stream from the same seed.
inline std::vector<Op> MakeOps(const WorkloadSpec& w, const reo::ZipfSampler& zipf,
                               double rate, uint64_t duration_ns,
                               uint64_t salt) {
  reo::Pcg32 rng(w.seed * 0x9e3779b97f4a7c15ULL + salt, /*stream=*/0x0b5);
  std::vector<Op> ops;
  ops.reserve(static_cast<size_t>(rate * static_cast<double>(duration_ns) / 1e9 * 1.1) + 16);
  double t_ns = 0.0;
  for (;;) {
    // Exponential gaps; 1 - u keeps the log argument in (0, 1].
    t_ns += -std::log(1.0 - rng.NextDouble()) * 1e9 / rate;
    if (t_ns >= static_cast<double>(duration_ns)) break;
    Op op;
    op.at_ns = static_cast<uint64_t>(t_ns);
    op.rank = zipf.Sample(rng);
    op.write = rng.NextDouble() < w.write_ratio;
    ops.push_back(op);
  }
  return ops;
}

/// Per-rank base payloads, generated once before any clock starts.
class Payloads {
 public:
  explicit Payloads(const WorkloadSpec& w) : bytes_(w.object_bytes) {
    base_.resize(static_cast<size_t>(w.objects) * bytes_);
    for (uint32_t rank = 0; rank < w.objects; ++rank) {
      uint64_t x = w.seed * 0x9e3779b97f4a7c15ULL + rank * 0xbf58476d1ce4e5b9ULL;
      uint8_t* p = base_.data() + static_cast<size_t>(rank) * bytes_;
      for (size_t i = 0; i < bytes_; i += 8) {
        // splitmix64
        uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        z ^= z >> 31;
        std::memcpy(p + i, &z, std::min<size_t>(8, bytes_ - i));
      }
    }
  }

  uint64_t bytes() const { return bytes_; }

  /// Writes version `version` of `rank` into `out` (resized to fit).
  template <typename Vec>
  void Fill(uint32_t rank, uint64_t version, Vec& out) const {
    out.resize(bytes_);
    const uint8_t* src = base_.data() + static_cast<size_t>(rank) * bytes_;
    std::memcpy(out.data(), src, bytes_);
    std::memcpy(out.data(), &kPayloadMagic, 4);
    std::memcpy(out.data() + 4, &rank, 4);
    std::memcpy(out.data() + 8, &version, 8);
  }

  /// True when `data` is some version of `rank`'s payload (the server may
  /// pad to the chunk size; only the logical prefix counts). The version
  /// found is stored in `*version`.
  bool Check(uint32_t rank, std::span<const uint8_t> data,
             uint64_t* version) const {
    if (data.size() < bytes_ || bytes_ < kPayloadHeader) return false;
    uint32_t magic = 0, got_rank = 0;
    std::memcpy(&magic, data.data(), 4);
    std::memcpy(&got_rank, data.data() + 4, 4);
    std::memcpy(version, data.data() + 8, 8);
    if (magic != kPayloadMagic || got_rank != rank) return false;
    const uint8_t* want = base_.data() + static_cast<size_t>(rank) * bytes_;
    return std::memcmp(data.data() + kPayloadHeader, want + kPayloadHeader,
                       bytes_ - kPayloadHeader) == 0;
  }

  /// Flips one content byte of every expected payload: the self-test's
  /// deliberately wrong expectation, which every read must then fail.
  void CorruptExpectations() {
    for (size_t off = kPayloadHeader; off < base_.size(); off += bytes_) {
      base_[off] ^= 0xff;
    }
  }

 private:
  uint64_t bytes_;
  std::vector<uint8_t> base_;
};

/// Parses the workload flags shared by both programs. Returns false when
/// argv[*i] is not one of them; exits on a malformed value.
inline bool ParseWorkloadFlag(int argc, char** argv, int* i, WorkloadSpec* w) {
  auto value = [&]() -> const char* {
    if (*i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[*i]);
      std::exit(2);
    }
    return argv[++*i];
  };
  std::string flag = argv[*i];
  if (flag == "--objects") {
    w->objects = static_cast<uint32_t>(std::strtoul(value(), nullptr, 10));
  } else if (flag == "--object-kb") {
    w->object_bytes = std::strtoull(value(), nullptr, 10) * 1024;
  } else if (flag == "--write-ratio") {
    w->write_ratio = std::atof(value());
  } else if (flag == "--zipf") {
    w->zipf = std::atof(value());
  } else if (flag == "--class") {
    std::string v = value();
    w->write_class = v == "none" ? kUnclassified
                     : v == "cycle" ? kClassCycle
                                    : std::atoi(v.c_str());
  } else if (flag == "--seed") {
    w->seed = std::strtoull(value(), nullptr, 10);
  } else {
    return false;
  }
  return true;
}

}  // namespace perfbench
