#include "net/wire.hpp"

#include <bit>
#include <cstring>

namespace impress::net {

std::string_view to_string(MsgType t) noexcept {
  switch (t) {
    case MsgType::kHello: return "HELLO";
    case MsgType::kAssignShard: return "ASSIGN_SHARD";
    case MsgType::kTaskSubmit: return "TASK_SUBMIT";
    case MsgType::kTaskResult: return "TASK_RESULT";
    case MsgType::kHeartbeat: return "HEARTBEAT";
    case MsgType::kCheckpointShard: return "CHECKPOINT_SHARD";
    case MsgType::kWorkerDead: return "WORKER_DEAD";
  }
  return "UNKNOWN";
}

bool is_valid_type(std::uint8_t raw) noexcept {
  return raw >= static_cast<std::uint8_t>(MsgType::kHello) &&
         raw <= static_cast<std::uint8_t>(MsgType::kWorkerDead);
}

MsgType type_of(const Message& m) noexcept {
  return std::visit(
      [](const auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, HelloMsg>) return MsgType::kHello;
        if constexpr (std::is_same_v<T, AssignShardMsg>)
          return MsgType::kAssignShard;
        if constexpr (std::is_same_v<T, TaskSubmitMsg>)
          return MsgType::kTaskSubmit;
        if constexpr (std::is_same_v<T, TaskResultMsg>)
          return MsgType::kTaskResult;
        if constexpr (std::is_same_v<T, HeartbeatMsg>)
          return MsgType::kHeartbeat;
        if constexpr (std::is_same_v<T, CheckpointShardMsg>)
          return MsgType::kCheckpointShard;
        if constexpr (std::is_same_v<T, WorkerDeadMsg>)
          return MsgType::kWorkerDead;
      },
      m);
}

// --- WireWriter -------------------------------------------------------------

void WireWriter::u8(std::uint8_t v) { buf_.push_back(v); }

void WireWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v & 0xFF));
  buf_.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
}

void WireWriter::u32(std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8)
    buf_.push_back(static_cast<std::uint8_t>((v >> shift) & 0xFF));
}

void WireWriter::u64(std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8)
    buf_.push_back(static_cast<std::uint8_t>((v >> shift) & 0xFF));
}

void WireWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void WireWriter::str(std::string_view v) {
  if (v.size() > kMaxPayload)
    throw WireError("string field exceeds the payload ceiling");
  u32(static_cast<std::uint32_t>(v.size()));
  buf_.insert(buf_.end(), v.begin(), v.end());
}

void WireWriter::str_list(const std::vector<std::string>& v) {
  if (v.size() > kMaxPayload / 4)
    throw WireError("string list exceeds the payload ceiling");
  u32(static_cast<std::uint32_t>(v.size()));
  for (const auto& s : v) str(s);
}

// --- WireReader -------------------------------------------------------------

void WireReader::need(std::size_t n) const {
  if (n > size_ - pos_)
    throw WireError("payload truncated: field extends past the frame end");
}

std::uint8_t WireReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t WireReader::u16() {
  need(2);
  const std::uint16_t v = static_cast<std::uint16_t>(
      data_[pos_] | (static_cast<std::uint16_t>(data_[pos_ + 1]) << 8));
  pos_ += 2;
  return v;
}

std::uint32_t WireReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t WireReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  pos_ += 8;
  return v;
}

double WireReader::f64() { return std::bit_cast<double>(u64()); }

std::string WireReader::str() {
  const std::uint32_t n = u32();
  // Validate the declared length against bytes actually present BEFORE
  // sizing any allocation from it: a lying length field must not be able
  // to drive an allocation bomb or an over-read.
  need(n);
  std::string out(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return out;
}

std::vector<std::string> WireReader::str_list() {
  const std::uint32_t n = u32();
  // Each entry costs at least its own 4-byte length prefix; a count that
  // cannot fit in the remaining bytes is a lie.
  if (static_cast<std::size_t>(n) * 4 > remaining())
    throw WireError("string list count exceeds the remaining payload");
  std::vector<std::string> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(str());
  return out;
}

void WireReader::finish() const {
  if (pos_ != size_)
    throw WireError("payload carries trailing bytes past the last field");
}

// --- per-type payload encoding ----------------------------------------------

namespace {

void encode_payload(const HelloMsg& m, WireWriter& w) {
  w.u32(m.worker_id);
  w.u16(m.wire_version);
  w.u32(m.slots);
  w.str(m.build_tag);
}

HelloMsg decode_hello(WireReader& r) {
  HelloMsg m;
  m.worker_id = r.u32();
  m.wire_version = r.u16();
  m.slots = r.u32();
  m.build_tag = r.str();
  return m;
}

void encode_payload(const AssignShardMsg& m, WireWriter& w) {
  w.u32(m.shard_id);
  w.u32(m.epoch);
  w.u64(m.seed);
  w.str(m.campaign_name);
  w.str_list(m.target_names);
  w.u64(m.checkpoint_ordinal);
  w.str(m.checkpoint_json);
}

AssignShardMsg decode_assign(WireReader& r) {
  AssignShardMsg m;
  m.shard_id = r.u32();
  m.epoch = r.u32();
  m.seed = r.u64();
  m.campaign_name = r.str();
  m.target_names = r.str_list();
  m.checkpoint_ordinal = r.u64();
  m.checkpoint_json = r.str();
  return m;
}

void encode_payload(const TaskSubmitMsg& m, WireWriter& w) {
  w.u32(m.shard_id);
  w.u32(m.epoch);
  w.u64(m.task_seq);
  w.u8(static_cast<std::uint8_t>(m.kind));
  w.str(m.payload);
}

TaskSubmitMsg decode_submit(WireReader& r) {
  TaskSubmitMsg m;
  m.shard_id = r.u32();
  m.epoch = r.u32();
  m.task_seq = r.u64();
  const std::uint8_t kind = r.u8();
  if (kind != static_cast<std::uint8_t>(TaskSubmitMsg::Kind::kRunShard))
    throw WireError("TASK_SUBMIT carries an unknown kind");
  m.kind = static_cast<TaskSubmitMsg::Kind>(kind);
  m.payload = r.str();
  return m;
}

void encode_payload(const TaskResultMsg& m, WireWriter& w) {
  w.u32(m.shard_id);
  w.u32(m.epoch);
  w.u64(m.task_seq);
  w.u8(static_cast<std::uint8_t>(m.status));
  w.str(m.payload);
}

TaskResultMsg decode_result(WireReader& r) {
  TaskResultMsg m;
  m.shard_id = r.u32();
  m.epoch = r.u32();
  m.task_seq = r.u64();
  const std::uint8_t status = r.u8();
  if (status != static_cast<std::uint8_t>(TaskResultMsg::Status::kOk) &&
      status != static_cast<std::uint8_t>(TaskResultMsg::Status::kError))
    throw WireError("TASK_RESULT carries an unknown status");
  m.status = static_cast<TaskResultMsg::Status>(status);
  m.payload = r.str();
  return m;
}

void encode_payload(const HeartbeatMsg& m, WireWriter& w) {
  w.u32(m.worker_id);
  w.u64(m.tick);
  w.u32(m.active_shard);
  w.u8(m.busy);
}

HeartbeatMsg decode_heartbeat(WireReader& r) {
  HeartbeatMsg m;
  m.worker_id = r.u32();
  m.tick = r.u64();
  m.active_shard = r.u32();
  m.busy = r.u8();
  if (m.busy > 1) throw WireError("HEARTBEAT busy flag is not 0/1");
  return m;
}

void encode_payload(const CheckpointShardMsg& m, WireWriter& w) {
  w.u32(m.shard_id);
  w.u32(m.epoch);
  w.u64(m.ordinal);
  w.str(m.checkpoint_json);
}

CheckpointShardMsg decode_checkpoint(WireReader& r) {
  CheckpointShardMsg m;
  m.shard_id = r.u32();
  m.epoch = r.u32();
  m.ordinal = r.u64();
  m.checkpoint_json = r.str();
  return m;
}

void encode_payload(const WorkerDeadMsg& m, WireWriter& w) {
  w.u32(m.worker_id);
  w.u32(m.shard_id);
  w.u32(m.epoch);
  w.str(m.reason);
}

WorkerDeadMsg decode_dead(WireReader& r) {
  WorkerDeadMsg m;
  m.worker_id = r.u32();
  m.shard_id = r.u32();
  m.epoch = r.u32();
  m.reason = r.str();
  return m;
}

Message decode_payload(MsgType type, const std::uint8_t* data,
                       std::size_t size) {
  WireReader r(data, size);
  Message m = [&]() -> Message {
    switch (type) {
      case MsgType::kHello: return decode_hello(r);
      case MsgType::kAssignShard: return decode_assign(r);
      case MsgType::kTaskSubmit: return decode_submit(r);
      case MsgType::kTaskResult: return decode_result(r);
      case MsgType::kHeartbeat: return decode_heartbeat(r);
      case MsgType::kCheckpointShard: return decode_checkpoint(r);
      case MsgType::kWorkerDead: return decode_dead(r);
    }
    throw WireError("frame header carries an unknown message type");
  }();
  r.finish();
  return m;
}

}  // namespace

// --- framing ----------------------------------------------------------------

std::vector<std::uint8_t> encode_frame(const Message& m) {
  WireWriter payload;
  std::visit([&](const auto& msg) { encode_payload(msg, payload); }, m);
  const std::vector<std::uint8_t>& body = payload.bytes();
  if (body.size() > kMaxPayload)
    throw WireError("encoded payload exceeds kMaxPayload");

  WireWriter frame;
  frame.u8(kMagic0);
  frame.u8(kMagic1);
  frame.u8(kWireVersion);
  frame.u8(static_cast<std::uint8_t>(type_of(m)));
  frame.u32(static_cast<std::uint32_t>(body.size()));
  std::vector<std::uint8_t> out = frame.take();
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

namespace {

/// Validate a header. Returns the payload length.
std::size_t check_header(const std::uint8_t* data, std::size_t size) {
  if (size < kHeaderSize) throw WireError("frame shorter than its header");
  if (data[0] != kMagic0 || data[1] != kMagic1)
    throw WireError("bad frame magic");
  if (data[2] != kWireVersion)
    throw WireError("wire version skew: peer speaks version " +
                    std::to_string(static_cast<int>(data[2])) +
                    ", this build speaks " +
                    std::to_string(static_cast<int>(kWireVersion)));
  if (!is_valid_type(data[3]))
    throw WireError("frame header carries an unknown message type");
  WireReader len_reader(data + 4, 4);
  const std::uint32_t len = len_reader.u32();
  if (len > kMaxPayload)
    throw WireError("length field exceeds the payload ceiling");
  return len;
}

}  // namespace

Message decode_frame(const std::uint8_t* data, std::size_t size) {
  const std::size_t len = check_header(data, size);
  if (size != kHeaderSize + len)
    throw WireError("frame length field disagrees with the bytes supplied");
  return decode_payload(static_cast<MsgType>(data[3]), data + kHeaderSize,
                        len);
}

// --- FrameAssembler ---------------------------------------------------------

void FrameAssembler::feed(const std::uint8_t* data, std::size_t size) {
  if (poisoned_)
    throw WireError("assembler poisoned by an earlier framing error");
  buf_.insert(buf_.end(), data, data + size);
}

std::optional<Message> FrameAssembler::next() {
  if (poisoned_)
    throw WireError("assembler poisoned by an earlier framing error");
  if (buf_.size() < kHeaderSize) return std::nullopt;
  std::size_t len = 0;
  try {
    len = check_header(buf_.data(), buf_.size());
  } catch (const WireError&) {
    poisoned_ = true;
    throw;
  }
  if (buf_.size() < kHeaderSize + len) return std::nullopt;
  Message m = [&] {
    try {
      return decode_payload(static_cast<MsgType>(buf_[3]),
                            buf_.data() + kHeaderSize, len);
    } catch (const WireError&) {
      poisoned_ = true;
      throw;
    }
  }();
  buf_.erase(buf_.begin(),
             buf_.begin() + static_cast<std::ptrdiff_t>(kHeaderSize + len));
  return m;
}

}  // namespace impress::net
