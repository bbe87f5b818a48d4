// Flash substrate tests: slot store, latency model, wear accounting,
// failure & replacement, and the array wrapper.
#include <gtest/gtest.h>

#include "flash/flash_array.h"
#include "flash/flash_device.h"

namespace reo {
namespace {

FlashDeviceConfig SmallDevice() {
  FlashDeviceConfig cfg;
  cfg.capacity_bytes = 1 << 20;  // 1 MiB
  cfg.read_mbps = 100.0;
  cfg.write_mbps = 50.0;
  cfg.read_fixed_ns = 1000;
  cfg.write_fixed_ns = 2000;
  cfg.erase_block_bytes = 64 * 1024;
  cfg.pe_cycle_limit = 10;
  return cfg;
}

std::vector<uint8_t> Bytes(size_t n, uint8_t fill) {
  return std::vector<uint8_t>(n, fill);
}

TEST(FlashDeviceTest, WriteReadRoundTrip) {
  FlashDevice dev(SmallDevice());
  auto slot = dev.AllocateSlot(4096);
  ASSERT_TRUE(slot.ok());
  auto payload = Bytes(64, 0x5A);
  ASSERT_TRUE(dev.WriteSlot(*slot, payload).ok());
  auto read = dev.ReadSlot(*slot);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(std::equal(read->begin(), read->end(), payload.begin(), payload.end()));
}

TEST(FlashDeviceTest, SpaceAccounting) {
  FlashDevice dev(SmallDevice());
  EXPECT_EQ(dev.free_bytes(), 1u << 20);
  auto slot = dev.AllocateSlot(1000);
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(dev.used_bytes(), 1000u);
  EXPECT_EQ(dev.live_slots(), 1u);
  ASSERT_TRUE(dev.FreeSlot(*slot).ok());
  EXPECT_EQ(dev.used_bytes(), 0u);
  EXPECT_EQ(dev.live_slots(), 0u);
}

TEST(FlashDeviceTest, AllocationFailsWhenFull) {
  FlashDevice dev(SmallDevice());
  auto s1 = dev.AllocateSlot((1 << 20) - 100);
  ASSERT_TRUE(s1.ok());
  auto s2 = dev.AllocateSlot(200);
  EXPECT_EQ(s2.code(), ErrorCode::kNoSpace);
  // Exactly fitting succeeds.
  auto s3 = dev.AllocateSlot(100);
  EXPECT_TRUE(s3.ok());
}

TEST(FlashDeviceTest, SlotReuseAfterFree) {
  FlashDevice dev(SmallDevice());
  auto s1 = dev.AllocateSlot(100);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(dev.FreeSlot(*s1).ok());
  auto s2 = dev.AllocateSlot(100);
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(*s2, *s1);  // free list reuses the slot id
}

TEST(FlashDeviceTest, InvalidSlotOperations) {
  FlashDevice dev(SmallDevice());
  EXPECT_EQ(dev.ReadSlot(7).code(), ErrorCode::kNotFound);
  EXPECT_EQ(dev.FreeSlot(7).code(), ErrorCode::kNotFound);
  EXPECT_EQ(dev.WriteSlot(7, Bytes(8, 0)).code(), ErrorCode::kNotFound);
  EXPECT_EQ(dev.AllocateSlot(0).code(), ErrorCode::kInvalidArgument);
}

TEST(FlashDeviceTest, ServiceTimeModel) {
  FlashDevice dev(SmallDevice());
  // read: 1000 ns fixed + 100000 bytes at 100 MB/s = 1e6 ns.
  EXPECT_EQ(dev.ServiceTime(100000, false), 1000u + 1000000u);
  // write: 2000 ns fixed + 100000 bytes at 50 MB/s = 2e6 ns.
  EXPECT_EQ(dev.ServiceTime(100000, true), 2000u + 2000000u);
}

TEST(FlashDeviceTest, IoSerializesOnDevice) {
  FlashDevice dev(SmallDevice());
  SimTime t1 = dev.SubmitIo(0, 100000, false);
  SimTime t2 = dev.SubmitIo(0, 100000, false);  // queues behind t1
  EXPECT_EQ(t2, 2 * t1);
  // An IO submitted after the queue drains starts fresh.
  SimTime t3 = dev.SubmitIo(t2 + 500, 100000, false);
  EXPECT_EQ(t3, t2 + 500 + t1);
}

TEST(FlashDeviceTest, FailureSemantics) {
  FlashDevice dev(SmallDevice());
  auto slot = dev.AllocateSlot(100);
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(dev.WriteSlot(*slot, Bytes(16, 1)).ok());
  dev.Fail();
  EXPECT_FALSE(dev.healthy());
  EXPECT_EQ(dev.ReadSlot(*slot).code(), ErrorCode::kUnavailable);
  EXPECT_EQ(dev.WriteSlot(*slot, Bytes(16, 2)).code(), ErrorCode::kUnavailable);
  EXPECT_EQ(dev.AllocateSlot(10).code(), ErrorCode::kUnavailable);
}

TEST(FlashDeviceTest, ReplaceYieldsFreshDevice) {
  FlashDevice dev(SmallDevice());
  auto slot = dev.AllocateSlot(100);
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(dev.WriteSlot(*slot, Bytes(16, 1)).ok());
  dev.Fail();
  dev.Replace();
  EXPECT_TRUE(dev.healthy());
  EXPECT_EQ(dev.used_bytes(), 0u);
  EXPECT_EQ(dev.wear().bytes_written, 0u);
  EXPECT_EQ(dev.ReadSlot(*slot).code(), ErrorCode::kNotFound);
}

TEST(FlashDeviceTest, WearAccounting) {
  FlashDevice dev(SmallDevice());
  // Write 128 KiB total -> 2 erase blocks of 64 KiB.
  for (int i = 0; i < 2; ++i) {
    auto slot = dev.AllocateSlot(64 * 1024);
    ASSERT_TRUE(slot.ok());
    ASSERT_TRUE(dev.WriteSlot(*slot, Bytes(64, 0)).ok());
  }
  EXPECT_EQ(dev.wear().bytes_written, 128u * 1024);
  EXPECT_EQ(dev.wear().erase_cycles, 2u);
  EXPECT_EQ(dev.wear().io_writes, 2u);
  // 16 blocks * 10 P/E = 160 total cycles; 2 used -> 1.25 %.
  EXPECT_NEAR(dev.wear().WearFraction(dev.config()), 2.0 / 160.0, 1e-9);
}

TEST(FlashDeviceTest, ReadTracksTraffic) {
  FlashDevice dev(SmallDevice());
  auto slot = dev.AllocateSlot(5000);
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(dev.WriteSlot(*slot, Bytes(8, 3)).ok());
  ASSERT_TRUE(dev.ReadSlot(*slot).ok());
  EXPECT_EQ(dev.wear().bytes_read, 5000u);
  EXPECT_EQ(dev.wear().io_reads, 1u);
}

TEST(FlashDeviceTest, ReadSlotIntoCopiesVerifiedBytesAndCounts) {
  FlashDevice dev(SmallDevice());
  auto slot = dev.AllocateSlot(5000);
  ASSERT_TRUE(slot.ok());
  std::vector<uint8_t> payload(4096 + 13);
  for (size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<uint8_t>(i * 7);
  ASSERT_TRUE(dev.WriteSlot(*slot, payload).ok());
  std::vector<uint8_t> out(payload.size(), 0);
  ASSERT_TRUE(dev.ReadSlotInto(*slot, out).ok());
  EXPECT_EQ(out, payload);
  // The same counters as ReadSlot.
  EXPECT_EQ(dev.wear().bytes_read, 5000u);
  EXPECT_EQ(dev.wear().io_reads, 1u);
}

TEST(FlashDeviceTest, ReadSlotIntoReportsCorruptionLikeReadSlot) {
  FlashDevice dev(SmallDevice());
  auto slot = dev.AllocateSlot(5000);
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(dev.WriteSlot(*slot, Bytes(2048, 0x3C)).ok());
  ASSERT_TRUE(dev.CorruptSlot(*slot, 1000).ok());
  std::vector<uint8_t> out(2048);
  EXPECT_EQ(dev.ReadSlotInto(*slot, out).code(), ErrorCode::kCorrupted);
  EXPECT_EQ(dev.ReadSlot(*slot).code(), ErrorCode::kCorrupted);
  EXPECT_EQ(dev.wear().io_reads, 0u);  // neither counts a failed read
}

TEST(FlashDeviceTest, ReadSlotIntoRefusesAnotherSize) {
  FlashDevice dev(SmallDevice());
  auto slot = dev.AllocateSlot(5000);
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(dev.WriteSlot(*slot, Bytes(64, 0x11)).ok());
  std::vector<uint8_t> out(65, 0xEE);
  EXPECT_EQ(dev.ReadSlotInto(*slot, out).code(), ErrorCode::kCorrupted);
  EXPECT_EQ(out, Bytes(65, 0xEE));  // untouched
  EXPECT_EQ(dev.ReadSlotInto(7, out).code(), ErrorCode::kNotFound);
  dev.Fail();
  EXPECT_EQ(dev.ReadSlotInto(*slot, out).code(), ErrorCode::kUnavailable);
}

// --- FlashArray ----------------------------------------------------------------

TEST(FlashArrayTest, ConstructionAssignsIds) {
  FlashArray arr(5, SmallDevice());
  EXPECT_EQ(arr.size(), 5u);
  for (DeviceIndex i = 0; i < 5; ++i) {
    EXPECT_EQ(arr.device(i).config().id, i);
  }
  EXPECT_EQ(arr.healthy_count(), 5u);
  EXPECT_EQ(arr.total_capacity_bytes(), 5u << 20);
}

TEST(FlashArrayTest, FailAndReplace) {
  FlashArray arr(3, SmallDevice());
  ASSERT_TRUE(arr.FailDevice(1).ok());
  EXPECT_EQ(arr.healthy_count(), 2u);
  EXPECT_EQ(arr.HealthyDevices(), (std::vector<DeviceIndex>{0, 2}));
  // Double-fail rejected.
  EXPECT_EQ(arr.FailDevice(1).code(), ErrorCode::kInvalidArgument);
  // A spare only replaces a failed device: a healthy one still holds
  // chunks that the stripes name by slot id.
  EXPECT_EQ(arr.ReplaceDevice(0).code(), ErrorCode::kInvalidArgument);
  ASSERT_TRUE(arr.ReplaceDevice(1).ok());
  EXPECT_EQ(arr.healthy_count(), 3u);
  EXPECT_EQ(arr.ReplaceDevice(1).code(), ErrorCode::kInvalidArgument);
}

TEST(FlashArrayTest, BoundsChecked) {
  FlashArray arr(2, SmallDevice());
  EXPECT_EQ(arr.FailDevice(9).code(), ErrorCode::kNotFound);
  EXPECT_EQ(arr.ReplaceDevice(9).code(), ErrorCode::kNotFound);
}

TEST(FlashArrayTest, UsedBytesCountsHealthyOnly) {
  FlashArray arr(2, SmallDevice());
  auto s = arr.device(0).AllocateSlot(1000);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(arr.used_bytes(), 1000u);
  ASSERT_TRUE(arr.FailDevice(0).ok());
  EXPECT_EQ(arr.used_bytes(), 0u);
}

}  // namespace
}  // namespace reo
