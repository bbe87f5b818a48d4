// Pins the reo_loadgen exit-code precedence (tools/loadgen_exit.h). The CI
// smoke jobs branch on these codes, so every cell of the policy matrix is
// asserted — in particular that a fatal worker fails the run even in kill
// mode (the regression: kill-mode success used to be checked first, so a
// run whose workers never connected exited 0 and CI passed on a dead
// worker).
#include <gtest/gtest.h>

#include "loadgen_exit.h"

namespace reo::loadgen {
namespace {

RunOutcome Clean() { return RunOutcome{}; }

TEST(LoadgenExitTest, CleanRunIsZero) { EXPECT_EQ(ExitCode(Clean()), 0); }

TEST(LoadgenExitTest, FatalWorkerIsOne) {
  RunOutcome o = Clean();
  o.worker_fatal = true;
  EXPECT_EQ(ExitCode(o), 1);
}

TEST(LoadgenExitTest, FatalWorkerBeatsKillModeSuccess) {
  // The regression this policy exists for: a worker that died fatally
  // (e.g. could never connect) must fail the run even when the SIGKILL
  // was delivered.
  RunOutcome o = Clean();
  o.kill_mode = true;
  o.killed = true;
  o.worker_fatal = true;
  EXPECT_EQ(ExitCode(o), 1);
}

TEST(LoadgenExitTest, KillDeliveredIsZeroDespiteWireNoise) {
  // After the SIGKILL, torn responses and dropped connections are
  // expected; the wire/verify gates must not apply.
  RunOutcome o = Clean();
  o.kill_mode = true;
  o.killed = true;
  o.wire_errors = 7;
  o.verify_errors = 3;
  EXPECT_EQ(ExitCode(o), 0);
}

TEST(LoadgenExitTest, KillNeverDeliveredIsOne) {
  RunOutcome o = Clean();
  o.kill_mode = true;
  o.killed = false;
  EXPECT_EQ(ExitCode(o), 1);
}

TEST(LoadgenExitTest, WireCorruptionIsTwo) {
  RunOutcome o = Clean();
  o.wire_errors = 1;
  EXPECT_EQ(ExitCode(o), 2);
}

TEST(LoadgenExitTest, WireCorruptionOutranksVerifyErrors) {
  RunOutcome o = Clean();
  o.wire_errors = 1;
  o.verify_errors = 5;
  EXPECT_EQ(ExitCode(o), 2);
}

TEST(LoadgenExitTest, VerifyErrorsAreThree) {
  RunOutcome o = Clean();
  o.verify_errors = 1;
  EXPECT_EQ(ExitCode(o), 3);
}

TEST(LoadgenReadBackTest, VerdictForEveryModeAndClass) {
  // A miss: loss on one node at every class, and on the ring only for
  // the classes a node kill must not take (0 and 1).
  struct Case {
    bool ring;
    int class_id;  // -1: never classified
    ReadBack miss;
  };
  for (const Case& c : {Case{false, -1, ReadBack::kLost},
                        Case{false, 0, ReadBack::kLost},
                        Case{false, 1, ReadBack::kLost},
                        Case{false, 2, ReadBack::kLost},
                        Case{false, 3, ReadBack::kLost},
                        Case{true, -1, ReadBack::kCleanMiss},
                        Case{true, 0, ReadBack::kLost},
                        Case{true, 1, ReadBack::kLost},
                        Case{true, 2, ReadBack::kCleanMiss},
                        Case{true, 3, ReadBack::kCleanMiss}}) {
    SCOPED_TRACE(::testing::Message()
                 << (c.ring ? "ring" : "one node") << ", class " << c.class_id);
    EXPECT_EQ(ReadBackVerdict(c.ring, c.class_id, /*served=*/false,
                              /*bytes_match=*/false),
              c.miss);
    // Served bytes are judged alike in every mode and class.
    EXPECT_EQ(ReadBackVerdict(c.ring, c.class_id, true, true),
              ReadBack::kIntact);
    EXPECT_EQ(ReadBackVerdict(c.ring, c.class_id, true, false),
              ReadBack::kCorrupt);
  }
}

}  // namespace
}  // namespace reo::loadgen
