// Heap allocations this process has made, for reo_loadgen's bench report
// (allocations/op). alloc_counter.cpp replaces the global operator new
// and delete to count them: every heap allocation in the binary
// (workers, framing, the initiator) bumps one relaxed atomic, one
// uncontended RMW per allocation, noise next to malloc itself. The
// replacement lives in its own translation unit so the compiler never
// inlines it into a caller's cleanup path, where GCC 12 misreads the
// malloc/free pair as a mismatched new/delete.
#pragma once

#include <cstdint>

namespace reo::loadgen {

uint64_t AllocationCount();

}  // namespace reo::loadgen
