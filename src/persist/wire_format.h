// On-disk record formats of the persistence subsystem.
//
// Three little-endian, CRC32C-guarded layouts share this header:
//
//   * data-log record   — one per object write in a `seg-NNNNNN.dat`
//                         segment: fixed 56-byte header + payload bytes;
//   * journal record    — one per metadata transition in a `wal-NNNNNN.log`
//                         write-ahead file: [magic][crc][len][type+body];
//   * checkpoint image  — the whole object index + classifier state,
//                         written atomically to `CHECKPOINT`.
//
// Every record is self-verifying: a reader can always decide "intact",
// "torn" (truncated mid-record) or "corrupt" (CRC mismatch) without any
// out-of-band state, which is what crash recovery truncation relies on.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "common/object_id.h"
#include "common/status.h"

namespace reo {

// --- Magics & limits -------------------------------------------------------

inline constexpr uint32_t kDataRecordMagic = 0x444F4552;  // "REOD"
inline constexpr uint32_t kWalRecordMagic = 0x4A4F4552;   // "REOJ"
inline constexpr uint32_t kCheckpointMagic = 0x434F4552;  // "REOC"
inline constexpr uint32_t kCheckpointFormatVersion = 1;

/// Journal bodies are a few dozen bytes; anything larger than this is
/// treated as corruption rather than an allocation request.
inline constexpr uint32_t kMaxWalBodyBytes = 4096;

/// Fixed size of the data-log record header preceding the payload.
inline constexpr size_t kDataRecordHeaderBytes = 56;

// --- Little-endian byte packing -------------------------------------------

/// Append-only little-endian serializer (portable: no struct punning).
class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U16(uint16_t v) { Raw(&v, 2); }
  void U32(uint32_t v) { Raw(&v, 4); }
  void U64(uint64_t v) { Raw(&v, 8); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, 8);
    U64(bits);
  }

  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  void Raw(const void* p, size_t n) {
    // The build targets are little-endian; memcpy keeps this free of
    // alignment and aliasing hazards.
    const size_t at = buf_.size();
    buf_.resize(at + n);
    std::memcpy(buf_.data() + at, p, n);
  }

  std::vector<uint8_t> buf_;
};

/// Bounds-checked little-endian reader: overruns latch `ok() == false`
/// and further reads return zero instead of touching out-of-range bytes.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  uint8_t U8() { return static_cast<uint8_t>(Raw(1)); }
  uint32_t U32() { return static_cast<uint32_t>(Raw(4)); }
  uint64_t U64() { return Raw(8); }
  double F64() {
    uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  }

  bool ok() const { return ok_; }

 private:
  uint64_t Raw(size_t n) {
    if (pos_ + n > data_.size()) {
      ok_ = false;
      return 0;
    }
    uint64_t v = 0;
    std::memcpy(&v, data_.data() + pos_, n);
    pos_ += n;
    return v;
  }

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// --- Data-log records ------------------------------------------------------

/// Where one object's persisted payload lives inside the segmented log.
struct DataLocation {
  uint32_t segment = 0;
  uint64_t offset = 0;       ///< byte offset of the record header
  uint32_t payload_len = 0;  ///< payload bytes following the header
  uint32_t payload_crc = 0;  ///< CRC32C of those bytes

  uint64_t record_end() const {
    return offset + kDataRecordHeaderBytes + payload_len;
  }
  friend bool operator==(const DataLocation&, const DataLocation&) = default;
};

/// Decoded data-log record header.
struct DataRecordHeader {
  ObjectId id;
  uint64_t logical_size = 0;
  uint64_t lsn = 0;  ///< journal sequence number of the committing write
  uint32_t payload_len = 0;
  uint32_t payload_crc = 0;
  uint8_t class_id = 3;
  bool dirty = false;
};

/// Serializes a data-record header (exactly kDataRecordHeaderBytes).
std::vector<uint8_t> EncodeDataRecordHeader(const DataRecordHeader& h);

/// Parses + CRC-verifies a header. kCorrupted on any mismatch.
Result<DataRecordHeader> DecodeDataRecordHeader(std::span<const uint8_t> raw);

// --- Object entries ----------------------------------------------------------

/// One durable index entry: everything needed to restore an object.
struct PersistedObject {
  ObjectId id;
  uint8_t class_id = 3;
  bool dirty = false;
  uint64_t logical_size = 0;
  uint64_t lsn = 0;      ///< journal sequence number of the committing write
  double hotness = 0.0;  ///< last H reported by the cache manager
  DataLocation loc;
};

/// The object-entry codec, shared by the kPut journal body (after its
/// type byte) and the checkpoint entry: pid, oid, logical size, LSN,
/// class, dirty, hotness, segment, offset, payload length, payload CRC.
void EncodeObjectEntry(ByteWriter& w, const PersistedObject& o);
/// Reads one entry; a short input latches `r.ok() == false`.
PersistedObject DecodeObjectEntry(ByteReader& r);

// --- Journal records -------------------------------------------------------

enum class WalRecordType : uint8_t {
  kPut = 1,         ///< object written: index entry incl. data location
  kState = 2,       ///< class / dirty / hotness transition
  kEvict = 3,       ///< object removed
  kClassifier = 4,  ///< adaptive classifier state (H_hot)
};

/// One decoded journal record. A kPut carries every object-entry field;
/// kState uses id, class_id, dirty and hotness (when has_hotness), kEvict
/// the id, kClassifier the hotness (H_hot).
struct WalRecord : PersistedObject {
  WalRecordType type = WalRecordType::kPut;
  bool has_hotness = false;
};

/// kState class_id sentinel: leave the object's class untouched.
inline constexpr uint8_t kKeepClass = 0xFF;

/// Serializes the type+body of a journal record (framing added by the WAL).
std::vector<uint8_t> EncodeWalBody(const WalRecord& rec);

/// Parses a type+body produced by EncodeWalBody.
Result<WalRecord> DecodeWalBody(std::span<const uint8_t> body);

/// Frames `body` ([magic][crc][len][body]) onto the end of `out` — the
/// group-commit path: the journal batches many framed records into one
/// contiguous buffer and issues a single write per fsync batch.
void AppendWalFrame(std::vector<uint8_t>& out, std::span<const uint8_t> body);

/// Outcome of pulling one framed record off a journal byte stream.
struct WalFrameScan {
  enum class State : uint8_t {
    kRecord,   ///< a valid record was decoded; `consumed` advances past it
    kTorn,     ///< stream ends mid-record or CRC fails at the tail
    kCorrupt,  ///< CRC/magic fails but intact records exist further on
    kEnd,      ///< clean end of stream
  };
  State state = State::kEnd;
  size_t consumed = 0;  ///< bytes to advance on kRecord
  std::vector<uint8_t> body;
};

/// Examines the stream head. On a bad frame, scans ahead for any later
/// intact record to distinguish a torn tail (truncate, recover) from
/// mid-log corruption (fail-stop).
WalFrameScan ScanWalFrame(std::span<const uint8_t> stream);

}  // namespace reo
