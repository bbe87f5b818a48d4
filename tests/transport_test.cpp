// Wire-transport tests: command/response serialization round trips,
// corruption rejection, link-time accounting, and the full cache stack
// running over the wire.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>

#include "common/rng.h"
#include "core/cache_manager.h"
#include "osd/transport.h"

namespace reo {
namespace {

constexpr uint64_t kChunk = 1024;

ObjectId Oid(uint64_t n) { return ObjectId{kFirstUserId, 0x20000 + n}; }

OsdCommand SampleCommand() {
  OsdCommand c;
  c.op = OsdOp::kWrite;
  c.id = Oid(7);
  c.logical_size = 12345;
  c.capacity_bytes = 1 << 20;
  c.now = 987654321;
  c.attr = kAttrClassId;
  c.data = {1, 2, 3, 4, 5};
  c.attr_value = {9, 9};
  return c;
}

TEST(TransportWireTest, CommandRoundTrip) {
  OsdCommand c = SampleCommand();
  auto wire = EncodeCommand(c);
  auto back = DecodeCommand(wire);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->op, c.op);
  EXPECT_EQ(back->id, c.id);
  EXPECT_EQ(back->logical_size, c.logical_size);
  EXPECT_EQ(back->capacity_bytes, c.capacity_bytes);
  EXPECT_EQ(back->now, c.now);
  EXPECT_EQ(back->attr, c.attr);
  EXPECT_EQ(back->data, c.data);
  EXPECT_EQ(back->attr_value, c.attr_value);
}

TEST(TransportWireTest, ResponseRoundTrip) {
  OsdResponse r;
  r.sense = SenseCode::kRedundancyFull;
  r.complete = 42424242;
  r.degraded = true;
  r.data = {7, 8, 9};
  r.attr_value = {1};
  r.list = {0x10000, 0x10004, 0x20000};
  auto wire = EncodeResponse(r);
  auto back = DecodeResponse(wire);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->sense, r.sense);
  EXPECT_EQ(back->complete, r.complete);
  EXPECT_EQ(back->degraded, r.degraded);
  EXPECT_EQ(back->data, r.data);
  EXPECT_EQ(back->attr_value, r.attr_value);
  EXPECT_EQ(back->list, r.list);
}

TEST(TransportWireTest, ResponsePartsConcatenateToFlatEncoding) {
  // The scatter-gather encoder must be byte-identical to EncodeResponse:
  // head‖body‖tail == flat wire, with the data buffer moved into body.
  OsdResponse r;
  r.sense = SenseCode::kRedundancyFull;
  r.complete = 42424242;
  r.degraded = true;
  r.data.resize(1000);
  for (size_t i = 0; i < r.data.size(); ++i) {
    r.data[i] = static_cast<uint8_t>(i * 37 + 5);
  }
  r.attr_value = {1, 2, 3};
  r.list = {0x10000, 0x10004, 0x20000};
  auto flat = EncodeResponse(r);

  OsdResponse moved = r;  // keep r intact for the flat encode comparison
  auto parts = EncodeResponseParts(std::move(moved));
  EXPECT_EQ(parts.body, r.data);  // moved, not re-encoded

  std::vector<uint8_t> joined = parts.head;
  joined.insert(joined.end(), parts.body.begin(), parts.body.end());
  joined.insert(joined.end(), parts.tail.begin(), parts.tail.end());
  EXPECT_EQ(joined, flat);

  // And empty optional fields still concatenate correctly.
  OsdResponse bare;
  auto bare_flat = EncodeResponse(bare);
  auto bare_parts = EncodeResponseParts(std::move(bare));
  std::vector<uint8_t> bare_joined = bare_parts.head;
  bare_joined.insert(bare_joined.end(), bare_parts.body.begin(),
                     bare_parts.body.end());
  bare_joined.insert(bare_joined.end(), bare_parts.tail.begin(),
                     bare_parts.tail.end());
  EXPECT_EQ(bare_joined, bare_flat);
}

TEST(TransportWireTest, CommandPartsAroundDataMatchFlatEncoding) {
  // head‖command.data‖tail must be EncodeCommand's bytes, with and without
  // the data and attr_value fields.
  auto joined = [](const OsdCommand& c) {
    EncodedCommandParts parts = EncodeCommandParts(c);
    std::vector<uint8_t> out = parts.head;
    out.insert(out.end(), c.data.begin(), c.data.end());
    out.insert(out.end(), parts.tail.begin(), parts.tail.end());
    return out;
  };
  OsdCommand full = SampleCommand();
  full.data.resize(3000);
  for (size_t i = 0; i < full.data.size(); ++i) {
    full.data[i] = static_cast<uint8_t>(i * 13 + 1);
  }
  OsdCommand no_data = SampleCommand();
  no_data.data.clear();
  OsdCommand no_attr = SampleCommand();
  no_attr.attr_value.clear();
  OsdCommand bare;
  for (const OsdCommand& c : {full, no_data, no_attr, bare}) {
    EXPECT_EQ(joined(c), EncodeCommand(c))
        << c.data.size() << " data bytes, " << c.attr_value.size()
        << " attr bytes";
  }
}

std::vector<uint8_t> FromHex(std::string_view hex) {
  std::vector<uint8_t> out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<uint8_t>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

TEST(TransportWireTest, FlatEncodingsArePinnedByteForByte) {
  // The flat encoders and the parts encoders share their head and tail
  // writers, so the tests above cannot see a field moved or resized in
  // both. These bytes can: the sample command and response, field by
  // field, little-endian.
  EXPECT_EQ(EncodeCommand(SampleCommand()),
            FromHex("434f4552"            // magic "REOC"
                    "03"                  // op kWrite
                    "0000010000000000"    // pid
                    "0700020000000000"    // oid
                    "3930000000000000"    // logical_size 12345
                    "0000100000000000"    // capacity_bytes 1 MiB
                    "b168de3a00000000"    // now 987654321
                    "0000002f" "01000000"  // kAttrClassId page, number
                    "0500000000000000" "0102030405"  // data
                    "0200000000000000" "0909"));     // attr_value
  OsdResponse r;
  r.sense = SenseCode::kRedundancyFull;
  r.complete = 42424242;
  r.degraded = true;
  r.data = {7, 8, 9};
  r.attr_value = {1};
  r.list = {0x10000, 0x10004, 0x20000};
  EXPECT_EQ(EncodeResponse(r),
            FromHex("524f4552"          // magic "REOR"
                    "67000000"          // sense
                    "b257870200000000"  // complete 42424242
                    "01"                // degraded
                    "0300000000000000" "070809"  // data
                    "0100000000000000" "01"      // attr_value
                    "0300000000000000"           // list
                    "0000010000000000" "0400010000000000"
                    "0000020000000000"));
}

TEST(TransportWireTest, NegativeSenseSurvivesWire) {
  OsdResponse r;
  r.sense = SenseCode::kFail;  // -1
  auto back = DecodeResponse(EncodeResponse(r));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->sense, SenseCode::kFail);
}

TEST(TransportWireTest, TruncationAndGarbageRejected) {
  auto wire = EncodeCommand(SampleCommand());
  for (size_t cut : {size_t{0}, size_t{3}, wire.size() / 2, wire.size() - 1}) {
    std::vector<uint8_t> trunc(wire.begin(), wire.begin() + static_cast<long>(cut));
    EXPECT_FALSE(DecodeCommand(trunc).ok()) << "cut " << cut;
  }
  // Trailing junk is also rejected (framing must be exact).
  auto padded = wire;
  padded.push_back(0);
  EXPECT_FALSE(DecodeCommand(padded).ok());
  // Bad magic.
  auto bad = wire;
  bad[0] ^= 0xFF;
  EXPECT_FALSE(DecodeCommand(bad).ok());
  // Bad opcode.
  auto badop = wire;
  badop[4] = 0xEE;
  EXPECT_FALSE(DecodeCommand(badop).ok());
}

TEST(TransportWireTest, FuzzDecodeNeverCrashes) {
  Pcg32 rng(31);
  for (int i = 0; i < 20000; ++i) {
    std::vector<uint8_t> junk(rng.NextBounded(96));
    for (auto& b : junk) b = static_cast<uint8_t>(rng.Next());
    (void)DecodeCommand(junk);
    (void)DecodeResponse(junk);
  }
}

struct WireStack {
  WireStack() {
    FlashDeviceConfig dev;
    dev.capacity_bytes = 1 << 20;
    array = std::make_unique<FlashArray>(5, dev);
    stripes = std::make_unique<StripeManager>(
        *array,
        StripeManagerConfig{.chunk_logical_bytes = kChunk, .scale_shift = 0});
    plane = std::make_unique<ReoDataPlane>(
        *stripes, RedundancyPolicy({.mode = ProtectionMode::kReo,
                                    .reo_reserve_fraction = 0.3}));
    target = std::make_unique<OsdTarget>(*plane);
    transport = std::make_unique<OsdTransport>(*target);
    failure = std::make_unique<FailurePlane>(*plane);
    backend = std::make_unique<BackendStore>(HddConfig{}, NetworkLinkConfig{});
    cache = std::make_unique<CacheManager>(*transport, *plane, *failure,
                                           *backend, CacheManagerConfig{});
    cache->Initialize(0);
  }

  std::unique_ptr<FlashArray> array;
  std::unique_ptr<StripeManager> stripes;
  std::unique_ptr<ReoDataPlane> plane;
  std::unique_ptr<OsdTarget> target;
  std::unique_ptr<OsdTransport> transport;
  std::unique_ptr<FailurePlane> failure;
  std::unique_ptr<BackendStore> backend;
  std::unique_ptr<CacheManager> cache;
};

TEST(TransportStackTest, CacheWorksOverTheWire) {
  WireStack fx;
  fx.backend->RegisterObject(Oid(1), 4 * kChunk, fx.stripes->PhysicalSize(4 * kChunk));
  SimClock clock;
  auto miss = fx.cache->Get(Oid(1), 4 * kChunk, clock.now());
  clock.Advance(miss.latency);
  EXPECT_FALSE(miss.hit);
  auto hit = fx.cache->Get(Oid(1), 4 * kChunk, clock.now());
  EXPECT_TRUE(hit.hit);
  // Every hit payload crossed the wire and was verified by content CRC.
  EXPECT_EQ(fx.cache->stats().verify_failures, 0u);
  EXPECT_GT(fx.transport->stats().commands, 0u);
  EXPECT_GT(fx.transport->stats().bytes_sent, 0u);
  EXPECT_GT(fx.transport->stats().bytes_received,
            fx.stripes->PhysicalSize(4 * kChunk));  // the read payload
  EXPECT_EQ(fx.transport->stats().decode_errors, 0u);
}

TEST(TransportStackTest, WireAddsLatency) {
  WireStack fx;
  fx.backend->RegisterObject(Oid(1), 4 * kChunk, fx.stripes->PhysicalSize(4 * kChunk));
  SimClock clock;
  (void)fx.cache->Get(Oid(1), 4 * kChunk, clock.now());
  auto wire_hit = fx.cache->Get(Oid(1), 4 * kChunk, 10 * kNsPerSec);

  // Same stack without a transport: the in-process hit is faster.
  FlashDeviceConfig dev;
  dev.capacity_bytes = 1 << 20;
  FlashArray array(5, dev);
  StripeManager stripes(array, {.chunk_logical_bytes = kChunk, .scale_shift = 0});
  ReoDataPlane plane(stripes, RedundancyPolicy({.mode = ProtectionMode::kReo,
                                                .reo_reserve_fraction = 0.3}));
  OsdTarget target(plane);
  FailurePlane failure(plane);
  BackendStore backend(HddConfig{}, NetworkLinkConfig{});
  CacheManager cache(target, plane, failure, backend, CacheManagerConfig{});
  cache.Initialize(0);
  backend.RegisterObject(Oid(1), 4 * kChunk, stripes.PhysicalSize(4 * kChunk));
  (void)cache.Get(Oid(1), 4 * kChunk, 0);
  auto local_hit = cache.Get(Oid(1), 4 * kChunk, 10 * kNsPerSec);

  EXPECT_TRUE(wire_hit.hit);
  EXPECT_TRUE(local_hit.hit);
  EXPECT_GT(wire_hit.latency, local_hit.latency);
}

}  // namespace
}  // namespace reo
