#include "persist/wire_format.h"

#include "common/crc32c.h"

namespace reo {
namespace {

/// Reads a u32 at `off` without bounds checking (caller guarantees room).
uint32_t PeekU32(std::span<const uint8_t> b, size_t off) {
  uint32_t v;
  std::memcpy(&v, b.data() + off, 4);
  return v;
}

}  // namespace

// --- Data-log records ------------------------------------------------------

std::vector<uint8_t> EncodeDataRecordHeader(const DataRecordHeader& h) {
  ByteWriter w;
  w.U32(kDataRecordMagic);
  w.U32(0);  // header_crc patched below
  w.U32(h.payload_crc);
  w.U32(h.payload_len);
  w.U64(h.id.pid);
  w.U64(h.id.oid);
  w.U64(h.logical_size);
  w.U64(h.lsn);
  w.U8(h.class_id);
  w.U8(h.dirty ? 1 : 0);
  w.U16(0);
  w.U32(0);
  std::vector<uint8_t> out = w.Take();
  REO_CHECK(out.size() == kDataRecordHeaderBytes);
  uint32_t crc = Crc32c(std::span(out).subspan(8));
  std::memcpy(out.data() + 4, &crc, 4);
  return out;
}

Result<DataRecordHeader> DecodeDataRecordHeader(std::span<const uint8_t> raw) {
  if (raw.size() < kDataRecordHeaderBytes) {
    return Status{ErrorCode::kCorrupted, "data record header truncated"};
  }
  raw = raw.first(kDataRecordHeaderBytes);
  if (PeekU32(raw, 0) != kDataRecordMagic) {
    return Status{ErrorCode::kCorrupted, "data record magic mismatch"};
  }
  if (PeekU32(raw, 4) != Crc32c(raw.subspan(8))) {
    return Status{ErrorCode::kCorrupted, "data record header CRC mismatch"};
  }
  ByteReader r(raw.subspan(8));
  DataRecordHeader h;
  h.payload_crc = r.U32();
  h.payload_len = r.U32();
  h.id.pid = r.U64();
  h.id.oid = r.U64();
  h.logical_size = r.U64();
  h.lsn = r.U64();
  h.class_id = r.U8();
  h.dirty = r.U8() != 0;
  return h;
}

// --- Object entries ----------------------------------------------------------

void EncodeObjectEntry(ByteWriter& w, const PersistedObject& o) {
  w.U64(o.id.pid);
  w.U64(o.id.oid);
  w.U64(o.logical_size);
  w.U64(o.lsn);
  w.U8(o.class_id);
  w.U8(o.dirty ? 1 : 0);
  w.F64(o.hotness);
  w.U32(o.loc.segment);
  w.U64(o.loc.offset);
  w.U32(o.loc.payload_len);
  w.U32(o.loc.payload_crc);
}

PersistedObject DecodeObjectEntry(ByteReader& r) {
  PersistedObject o;
  o.id.pid = r.U64();
  o.id.oid = r.U64();
  o.logical_size = r.U64();
  o.lsn = r.U64();
  o.class_id = r.U8();
  o.dirty = r.U8() != 0;
  o.hotness = r.F64();
  o.loc.segment = r.U32();
  o.loc.offset = r.U64();
  o.loc.payload_len = r.U32();
  o.loc.payload_crc = r.U32();
  return o;
}

// --- Journal records -------------------------------------------------------

std::vector<uint8_t> EncodeWalBody(const WalRecord& rec) {
  ByteWriter w;
  w.U8(static_cast<uint8_t>(rec.type));
  switch (rec.type) {
    case WalRecordType::kPut:
      EncodeObjectEntry(w, rec);
      break;
    case WalRecordType::kState:
      w.U64(rec.id.pid);
      w.U64(rec.id.oid);
      w.U8(rec.class_id);
      w.U8(rec.dirty ? 1 : 0);
      w.U8(rec.has_hotness ? 1 : 0);
      w.F64(rec.hotness);
      break;
    case WalRecordType::kEvict:
      w.U64(rec.id.pid);
      w.U64(rec.id.oid);
      break;
    case WalRecordType::kClassifier:
      w.F64(rec.hotness);  // hotness carries H_hot here
      break;
  }
  return w.Take();
}

Result<WalRecord> DecodeWalBody(std::span<const uint8_t> body) {
  ByteReader r(body);
  WalRecord rec;
  uint8_t type = r.U8();
  switch (type) {
    case static_cast<uint8_t>(WalRecordType::kPut):
      static_cast<PersistedObject&>(rec) = DecodeObjectEntry(r);
      rec.type = WalRecordType::kPut;
      break;
    case static_cast<uint8_t>(WalRecordType::kState):
      rec.type = WalRecordType::kState;
      rec.id.pid = r.U64();
      rec.id.oid = r.U64();
      rec.class_id = r.U8();
      rec.dirty = r.U8() != 0;
      rec.has_hotness = r.U8() != 0;
      rec.hotness = r.F64();
      break;
    case static_cast<uint8_t>(WalRecordType::kEvict):
      rec.type = WalRecordType::kEvict;
      rec.id.pid = r.U64();
      rec.id.oid = r.U64();
      break;
    case static_cast<uint8_t>(WalRecordType::kClassifier):
      rec.type = WalRecordType::kClassifier;
      rec.hotness = r.F64();
      break;
    default:
      return Status{ErrorCode::kCorrupted, "unknown journal record type"};
  }
  if (!r.ok()) {
    return Status{ErrorCode::kCorrupted, "journal record body truncated"};
  }
  return rec;
}

void AppendWalFrame(std::vector<uint8_t>& out, std::span<const uint8_t> body) {
  // [magic u32][crc u32][len u32][body]; the CRC covers len + body so a
  // corrupted length can never masquerade as a valid record.
  uint32_t len = static_cast<uint32_t>(body.size());
  uint32_t crc = Crc32c(std::span(reinterpret_cast<const uint8_t*>(&len), 4));
  crc = Crc32c(body, crc);
  size_t base = out.size();
  out.resize(base + 12 + body.size());
  uint8_t* p = out.data() + base;
  auto put32 = [](uint8_t* dst, uint32_t v) {
    dst[0] = static_cast<uint8_t>(v);
    dst[1] = static_cast<uint8_t>(v >> 8);
    dst[2] = static_cast<uint8_t>(v >> 16);
    dst[3] = static_cast<uint8_t>(v >> 24);
  };
  put32(p, kWalRecordMagic);
  put32(p + 4, crc);
  put32(p + 8, len);
  if (!body.empty()) std::memcpy(p + 12, body.data(), body.size());
}

namespace {

/// True when an intact framed record starts exactly at `stream[0]`.
bool FrameIsIntactAt(std::span<const uint8_t> stream) {
  if (stream.size() < 12) return false;
  if (PeekU32(stream, 0) != kWalRecordMagic) return false;
  uint32_t len = PeekU32(stream, 8);
  if (len > kMaxWalBodyBytes || stream.size() < 12 + static_cast<size_t>(len)) {
    return false;
  }
  uint32_t crc = Crc32c(stream.subspan(8, 4));
  crc = Crc32c(stream.subspan(12, len), crc);
  return crc == PeekU32(stream, 4);
}

/// True when any intact record starts anywhere inside `stream`.
bool AnyIntactFrameIn(std::span<const uint8_t> stream) {
  for (size_t i = 0; i + 12 <= stream.size(); ++i) {
    if (FrameIsIntactAt(stream.subspan(i))) return true;
  }
  return false;
}

}  // namespace

WalFrameScan ScanWalFrame(std::span<const uint8_t> stream) {
  WalFrameScan scan;
  if (stream.empty()) {
    scan.state = WalFrameScan::State::kEnd;
    return scan;
  }
  if (FrameIsIntactAt(stream)) {
    uint32_t len = PeekU32(stream, 8);
    scan.state = WalFrameScan::State::kRecord;
    scan.consumed = 12 + len;
    scan.body.assign(stream.begin() + 12, stream.begin() + 12 + len);
    return scan;
  }
  // The head is not an intact record. If nothing intact exists further on,
  // this is the classic torn tail of an interrupted append — safe to cut.
  // If intact records DO follow, bytes in the committed middle of the log
  // were damaged; silently skipping them could resurrect evicted objects
  // or drop acknowledged ones, so the caller must fail stop.
  scan.state = AnyIntactFrameIn(stream.subspan(1))
                   ? WalFrameScan::State::kCorrupt
                   : WalFrameScan::State::kTorn;
  return scan;
}

}  // namespace reo
