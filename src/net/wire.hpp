// The fabric wire protocol: compact length-prefixed binary frames with
// explicit, bounds-checked serialization (docs/fabric.md).
//
// Frame layout (all integers little-endian, written byte by byte — no
// struct dumping; the raw-struct-serialization lint rule enforces this):
//
//   offset  size  field
//   0       2     magic      0x49 0x4D ("IM")
//   2       1     version    kWireVersion
//   3       1     type       MsgType
//   4       4     length     payload byte count (<= kMaxPayload)
//   8       n     payload    message fields, per-type encoding below
//
// Decoder contract (pinned by tests/net/test_wire_fuzz.cpp under
// ASan/UBSan): for ANY byte sequence, decoding either yields a valid
// message or throws WireError — it never crashes, never reads outside
// the supplied buffer, and never accepts a frame whose payload is
// malformed, truncated, oversized, version-skewed, or carries trailing
// garbage. Strings and lists are length-prefixed and validated against
// the bytes actually present before any allocation is sized from them.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace impress::net {

inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::uint8_t kMagic0 = 0x49;  // 'I'
inline constexpr std::uint8_t kMagic1 = 0x4D;  // 'M'
inline constexpr std::size_t kHeaderSize = 8;
/// Payload ceiling: large enough for a checkpoint document, small enough
/// that a lying length field cannot drive an allocation bomb.
inline constexpr std::size_t kMaxPayload = 64u << 20;
/// HeartbeatMsg::active_shard value meaning "no shard assigned".
inline constexpr std::uint32_t kNoShard = 0xFFFFFFFFu;

/// Every decoder failure mode: truncation, over-read, bad magic/version,
/// unknown type, length lies, trailing bytes, invalid enum values.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

/// Versioned message types. Values are wire-stable: append only.
enum class MsgType : std::uint8_t {
  kHello = 1,            ///< worker -> coordinator: registration
  kAssignShard = 2,      ///< coordinator -> worker: shard ownership grant
  kTaskSubmit = 3,       ///< coordinator -> worker: unit of work
  kTaskResult = 4,       ///< worker -> coordinator: terminal work outcome
  kHeartbeat = 5,        ///< both ways: liveness probe / reply
  kCheckpointShard = 6,  ///< worker -> coordinator: shard checkpoint doc
  kWorkerDead = 7,       ///< coordinator -> workers: death declaration
};

[[nodiscard]] std::string_view to_string(MsgType t) noexcept;
[[nodiscard]] bool is_valid_type(std::uint8_t raw) noexcept;
/// Number of distinct message types (for per-type counter arrays).
inline constexpr std::size_t kMsgTypeCount = 7;
/// Dense 0-based index of a type (kHello -> 0 ... kWorkerDead -> 6).
[[nodiscard]] constexpr std::size_t type_index(MsgType t) noexcept {
  return static_cast<std::size_t>(t) - 1;
}

// --- explicit little-endian encoding primitives -----------------------------

/// Appends fields to a byte buffer, one byte at a time. The only way
/// bytes enter a frame.
class WireWriter {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// IEEE-754 bit pattern via the u64 path (bit-exact round-trip).
  void f64(double v);
  /// u32 length + raw bytes.
  void str(std::string_view v);
  void str_list(const std::vector<std::string>& v);

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept {
    return std::move(buf_);
  }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked reads over a borrowed buffer. Every accessor throws
/// WireError instead of reading past the end; finish() rejects trailing
/// bytes so a payload must be consumed exactly.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();
  [[nodiscard]] std::vector<std::string> str_list();

  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }
  /// Throws WireError if any bytes remain unconsumed.
  void finish() const;

 private:
  void need(std::size_t n) const;

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// --- message payloads -------------------------------------------------------

struct HelloMsg {
  std::uint32_t worker_id = 0;
  std::uint16_t wire_version = kWireVersion;
  std::uint32_t slots = 1;  ///< concurrent shard capacity (informational)
  std::string build_tag;

  bool operator==(const HelloMsg&) const = default;
};

struct AssignShardMsg {
  std::uint32_t shard_id = 0;
  std::uint32_t epoch = 0;  ///< fencing token; bumped on every reassignment
  std::uint64_t seed = 0;
  std::string campaign_name;
  std::vector<std::string> target_names;  ///< shard membership, plan order
  /// Resume point: ordinal + serialized checkpoint document (empty json =
  /// run the shard from scratch).
  std::uint64_t checkpoint_ordinal = 0;
  std::string checkpoint_json;

  bool operator==(const AssignShardMsg&) const = default;
};

struct TaskSubmitMsg {
  enum class Kind : std::uint8_t {
    kRunShard = 1,  ///< execute the assigned shard campaign to completion
  };
  std::uint32_t shard_id = 0;
  std::uint32_t epoch = 0;
  std::uint64_t task_seq = 0;  ///< conservation accounting key
  Kind kind = Kind::kRunShard;
  std::string payload;  ///< opaque; empty for kRunShard

  bool operator==(const TaskSubmitMsg&) const = default;
};

struct TaskResultMsg {
  enum class Status : std::uint8_t { kOk = 1, kError = 2 };
  std::uint32_t shard_id = 0;
  std::uint32_t epoch = 0;
  std::uint64_t task_seq = 0;
  Status status = Status::kOk;
  /// kOk: session-dump JSON of the shard CampaignResult; kError: error
  /// text.
  std::string payload;

  bool operator==(const TaskResultMsg&) const = default;
};

struct HeartbeatMsg {
  std::uint32_t worker_id = 0;
  std::uint64_t tick = 0;  ///< sender's clock (coordinator ticks)
  std::uint32_t active_shard = kNoShard;
  std::uint8_t busy = 0;

  bool operator==(const HeartbeatMsg&) const = default;
};

struct CheckpointShardMsg {
  std::uint32_t shard_id = 0;
  std::uint32_t epoch = 0;
  std::uint64_t ordinal = 0;  ///< monotone per shard lineage
  std::string checkpoint_json;

  bool operator==(const CheckpointShardMsg&) const = default;
};

struct WorkerDeadMsg {
  std::uint32_t worker_id = 0;
  std::uint32_t shard_id = kNoShard;  ///< shard being rerouted, if any
  std::uint32_t epoch = 0;
  std::string reason;

  bool operator==(const WorkerDeadMsg&) const = default;
};

using Message = std::variant<HelloMsg, AssignShardMsg, TaskSubmitMsg,
                             TaskResultMsg, HeartbeatMsg, CheckpointShardMsg,
                             WorkerDeadMsg>;

[[nodiscard]] MsgType type_of(const Message& m) noexcept;

// --- framing ----------------------------------------------------------------

/// Encode a complete frame (header + payload).
[[nodiscard]] std::vector<std::uint8_t> encode_frame(const Message& m);

/// Decode one complete frame. Throws WireError on any malformation;
/// requires the buffer to contain exactly one frame.
[[nodiscard]] Message decode_frame(const std::uint8_t* data, std::size_t size);
[[nodiscard]] inline Message decode_frame(
    const std::vector<std::uint8_t>& frame) {
  return decode_frame(frame.data(), frame.size());
}

/// Incremental frame splitter for byte-stream transports (sockets): feed
/// arbitrary chunks, pull complete messages. A malformed header or
/// payload throws WireError and poisons the assembler — a byte stream
/// has no resynchronization point after a framing error, so the link
/// must be torn down (the socket transport does exactly that).
class FrameAssembler {
 public:
  void feed(const std::uint8_t* data, std::size_t size);
  /// Next complete message, or nullopt if more bytes are needed.
  [[nodiscard]] std::optional<Message> next();
  [[nodiscard]] std::size_t buffered() const noexcept { return buf_.size(); }
  [[nodiscard]] bool poisoned() const noexcept { return poisoned_; }

 private:
  std::vector<std::uint8_t> buf_;
  bool poisoned_ = false;
};

}  // namespace impress::net
