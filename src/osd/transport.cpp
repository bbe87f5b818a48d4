#include "osd/transport.h"

#include <algorithm>
#include <cstring>

namespace reo {
namespace {

constexpr uint32_t kCommandMagic = 0x52454F43;   // "REOC"
constexpr uint32_t kResponseMagic = 0x52454F52;  // "REOR"

class Writer {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
  void Bytes(std::span<const uint8_t> b) {
    U64(b.size());
    buf_.insert(buf_.end(), b.begin(), b.end());
  }
  void U64Vec(const std::vector<uint64_t>& v) {
    U64(v.size());
    for (uint64_t x : v) U64(x);
  }
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

class Reader {
 public:
  explicit Reader(std::span<const uint8_t> b) : buf_(b) {}

  bool U8(uint8_t* v) {
    if (pos_ + 1 > buf_.size()) return false;
    *v = buf_[pos_++];
    return true;
  }
  bool U32(uint32_t* v) {
    if (pos_ + 4 > buf_.size()) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) *v |= static_cast<uint32_t>(buf_[pos_++]) << (8 * i);
    return true;
  }
  bool U64(uint64_t* v) {
    if (pos_ + 8 > buf_.size()) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) *v |= static_cast<uint64_t>(buf_[pos_++]) << (8 * i);
    return true;
  }
  // Length-prefixed fields compare the announced count against the bytes
  // actually remaining (never `pos_ + n`, which a hostile 64-bit length
  // wraps past the size check into an out-of-bounds read).
  template <typename Vec>  // std::vector<uint8_t> or PayloadBuffer
  bool Bytes(Vec* out) {
    uint64_t n = 0;
    if (!U64(&n) || n > Remaining()) return false;
    out->assign(buf_.begin() + static_cast<long>(pos_),
                buf_.begin() + static_cast<long>(pos_ + n));
    pos_ += n;
    return true;
  }
  bool U64Vec(std::vector<uint64_t>* out) {
    uint64_t n = 0;
    if (!U64(&n) || n > Remaining() / 8) return false;
    out->resize(static_cast<size_t>(n));
    for (auto& x : *out) {
      if (!U64(&x)) return false;
    }
    return true;
  }
  bool Done() const { return pos_ == buf_.size(); }

 private:
  size_t Remaining() const { return buf_.size() - pos_; }

  std::span<const uint8_t> buf_;
  size_t pos_ = 0;
};

// A message whose bulk data field sits between two small parts: `head`
// ends with the data's length prefix and `tail` holds the fields after it.
// head‖data‖tail is the flat encoding, joined into one buffer sized once.
std::vector<uint8_t> Join(std::span<const uint8_t> head,
                          std::span<const uint8_t> data,
                          std::span<const uint8_t> tail) {
  std::vector<uint8_t> out;
  out.reserve(head.size() + data.size() + tail.size());
  out.insert(out.end(), head.begin(), head.end());
  out.insert(out.end(), data.begin(), data.end());
  out.insert(out.end(), tail.begin(), tail.end());
  return out;
}

std::vector<uint8_t> ResponseHead(const OsdResponse& r) {
  Writer w;
  w.U32(kResponseMagic);
  w.U32(static_cast<uint32_t>(r.sense));
  w.U64(r.complete);
  w.U8(r.degraded ? 1 : 0);
  w.U64(r.data.size());  // Bytes() length prefix
  return w.Take();
}

std::vector<uint8_t> ResponseTail(const OsdResponse& r) {
  Writer w;
  w.Bytes(r.attr_value);
  w.U64Vec(r.list);
  return w.Take();
}

}  // namespace

std::vector<uint8_t> EncodeCommand(const OsdCommand& c) {
  const EncodedCommandParts parts = EncodeCommandParts(c);
  return Join(parts.head, c.data, parts.tail);
}

EncodedCommandParts EncodeCommandParts(const OsdCommand& c) {
  Writer head;
  head.U32(kCommandMagic);
  head.U8(static_cast<uint8_t>(c.op));
  head.U64(c.id.pid);
  head.U64(c.id.oid);
  head.U64(c.logical_size);
  head.U64(c.capacity_bytes);
  head.U64(c.now);
  head.U32(c.attr.page);
  head.U32(c.attr.number);
  head.U64(c.data.size());  // Bytes() length prefix
  Writer tail;
  tail.Bytes(c.attr_value);
  return {head.Take(), tail.Take()};
}

Result<OsdCommand> DecodeCommand(std::span<const uint8_t> wire) {
  Reader r(wire);
  uint32_t magic = 0;
  uint8_t op = 0;
  OsdCommand c;
  if (!r.U32(&magic) || magic != kCommandMagic) {
    return Status{ErrorCode::kInvalidArgument, "bad command magic"};
  }
  if (!r.U8(&op) || op > static_cast<uint8_t>(OsdOp::kListCollection)) {
    return Status{ErrorCode::kInvalidArgument, "bad opcode"};
  }
  c.op = static_cast<OsdOp>(op);
  if (!r.U64(&c.id.pid) || !r.U64(&c.id.oid) || !r.U64(&c.logical_size) ||
      !r.U64(&c.capacity_bytes) || !r.U64(&c.now) || !r.U32(&c.attr.page) ||
      !r.U32(&c.attr.number) || !r.Bytes(&c.data) || !r.Bytes(&c.attr_value) ||
      !r.Done()) {
    return Status{ErrorCode::kInvalidArgument, "truncated command"};
  }
  return c;
}

std::vector<uint8_t> EncodeResponse(const OsdResponse& resp) {
  return Join(ResponseHead(resp), resp.data, ResponseTail(resp));
}

EncodedResponseParts EncodeResponseParts(OsdResponse&& resp) {
  EncodedResponseParts out;
  out.head = ResponseHead(resp);
  out.body = std::move(resp.data);  // the bytes the head's prefix announces
  out.tail = ResponseTail(resp);
  return out;
}

Result<OsdResponse> DecodeResponse(std::span<const uint8_t> wire) {
  Reader r(wire);
  uint32_t magic = 0, sense = 0;
  uint8_t degraded = 0;
  OsdResponse resp;
  if (!r.U32(&magic) || magic != kResponseMagic) {
    return Status{ErrorCode::kInvalidArgument, "bad response magic"};
  }
  if (!r.U32(&sense) || !r.U64(&resp.complete) || !r.U8(&degraded) ||
      !r.Bytes(&resp.data) || !r.Bytes(&resp.attr_value) ||
      !r.U64Vec(&resp.list) || !r.Done()) {
    return Status{ErrorCode::kInvalidArgument, "truncated response"};
  }
  resp.sense = static_cast<SenseCode>(static_cast<int32_t>(sense));
  resp.degraded = degraded != 0;
  return resp;
}

void OsdTransport::AttachTelemetry(MetricRegistry& registry) {
  tel_commands_ = &registry.GetCounter("transport.commands");
  tel_bytes_sent_ = &registry.GetCounter("transport.bytes_sent");
  tel_bytes_received_ = &registry.GetCounter("transport.bytes_received");
  tel_decode_errors_ = &registry.GetCounter("transport.decode_errors");
}

OsdResponse OsdTransport::Roundtrip(const OsdCommand& command) {
  ++stats_.commands;
  Inc(tel_commands_);
  TraceSpan span(trace_, TraceOp::kRoundtrip, command.now, command.id.oid);

  // Initiator -> target.
  auto request_wire = EncodeCommand(command);
  stats_.bytes_sent += request_wire.size();
  Inc(tel_bytes_sent_, request_wire.size());
  SimTime arrived = link_.Transfer(command.now, request_wire.size());

  auto decoded = DecodeCommand(request_wire);
  if (!decoded.ok()) {
    ++stats_.decode_errors;
    Inc(tel_decode_errors_);
    span.set_flags(kSpanError);
    OsdResponse err;
    err.sense = SenseCode::kFail;
    return err;
  }
  decoded->now = arrived;  // device time starts when the command lands
  OsdResponse resp = target_.Execute(*decoded);

  // Target -> initiator.
  auto response_wire = EncodeResponse(resp);
  stats_.bytes_received += response_wire.size();
  Inc(tel_bytes_received_, response_wire.size());
  SimTime target_done = std::max(arrived, resp.complete);
  SimTime received = link_.Transfer(target_done, response_wire.size());

  auto back = DecodeResponse(response_wire);
  if (!back.ok()) {
    ++stats_.decode_errors;
    Inc(tel_decode_errors_);
    span.set_flags(kSpanError);
    OsdResponse err;
    err.sense = SenseCode::kFail;
    return err;
  }
  back->complete = received;
  span.set_end(received);
  span.set_detail(request_wire.size() + response_wire.size());
  if (back->degraded) span.set_flags(kSpanDegraded);
  return std::move(*back);
}

}  // namespace reo
