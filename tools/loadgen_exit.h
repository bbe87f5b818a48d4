// Exit-code policy for reo_loadgen, factored out as a pure function so the
// precedence is unit-testable. The CI smoke jobs treat the process exit
// code as the verdict, so the ordering here is load-bearing:
//
//   1  a worker died with a fatal status (connect failure, connection lost
//      outside kill mode) — even in kill mode. Historically kill-mode
//      success was checked first, so a run whose workers never connected
//      could still exit 0 and CI would silently pass on a dead worker.
//   1  kill mode where the SIGKILL was never delivered.
//   0  kill mode with the kill delivered: dropped connections and torn
//      responses after the SIGKILL are expected, so the wire/verify gates
//      below do not apply.
//   2  wire corruption (CRC / framing / decode errors).
//   3  read-payload verification mismatches.
//   0  clean run.
//
// A read-back of acked ranks (--verify-manifest, and the drain-verify
// after a chaos run or a node-kill drill) runs after a clean run and
// judges each rank with ReadBackVerdict: 1 if a one-node connection
// drops outside chaos mode, else 2 on wire corruption, 3 on a corrupt
// payload, 4 on a lost acked object.
#pragma once

#include <cstdint>

namespace reo::loadgen {

struct RunOutcome {
  bool worker_fatal = false;  ///< any worker finished with a fatal status
  bool kill_mode = false;     ///< --kill-after was requested
  bool killed = false;        ///< the SIGKILL was actually delivered
  uint64_t wire_errors = 0;   ///< crc + frame + decode errors
  uint64_t verify_errors = 0;
};

inline int ExitCode(const RunOutcome& o) {
  if (o.worker_fatal) return 1;
  if (o.kill_mode) return o.killed ? 0 : 1;
  if (o.wire_errors > 0) return 2;
  if (o.verify_errors > 0) return 3;
  return 0;
}

/// What reading back one acked rank found.
enum class ReadBack : uint8_t {
  kIntact,     ///< served with the bytes that were written
  kCleanMiss,  ///< not served, and allowed to be
  kLost,       ///< not served, and it had to be
  kCorrupt,    ///< served with other bytes
};

/// The verdict on one acked rank of class `class_id` (-1: never
/// classified) read back on one node or through the ring. Served bytes
/// that differ are corruption in every mode. On one node a miss is loss
/// at any class: the server keeps every write it acked. On the ring a
/// node kill may take a clean object (class 2, 3 or unclassified) with
/// it, which the cache refills from the backend; class 0 and 1 must
/// survive.
inline ReadBack ReadBackVerdict(bool ring, int class_id, bool served,
                                bool bytes_match) {
  if (served) return bytes_match ? ReadBack::kIntact : ReadBack::kCorrupt;
  if (ring && class_id != 0 && class_id != 1) return ReadBack::kCleanMiss;
  return ReadBack::kLost;
}

}  // namespace reo::loadgen
