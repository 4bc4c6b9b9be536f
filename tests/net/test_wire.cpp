// Wire protocol unit tests: frame layout, per-type encode/decode
// round-trips, primitive bounds checking, and FrameAssembler chunking.
// The adversarial/mutation side lives in test_wire_fuzz.cpp.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "net/wire.hpp"

namespace impress::net {
namespace {

HelloMsg sample_hello() {
  return {.worker_id = 7,
          .wire_version = kWireVersion,
          .slots = 3,
          .build_tag = "impress-net/1"};
}

AssignShardMsg sample_assign() {
  AssignShardMsg m;
  m.shard_id = 2;
  m.epoch = 5;
  m.seed = 0xDEADBEEFCAFEF00DULL;
  m.campaign_name = "IM-RP";
  m.target_names = {"NHERF3", "DET-A", "DET-B"};
  m.checkpoint_ordinal = 9;
  m.checkpoint_json = "{\"ordinal\":9}";
  return m;
}

TEST(Wire, FrameHeaderLayout) {
  const std::vector<std::uint8_t> frame = encode_frame(sample_hello());
  ASSERT_GE(frame.size(), kHeaderSize);
  EXPECT_EQ(frame[0], kMagic0);
  EXPECT_EQ(frame[1], kMagic1);
  EXPECT_EQ(frame[2], kWireVersion);
  EXPECT_EQ(frame[3], static_cast<std::uint8_t>(MsgType::kHello));
  const std::uint32_t len = static_cast<std::uint32_t>(frame[4]) |
                            (static_cast<std::uint32_t>(frame[5]) << 8) |
                            (static_cast<std::uint32_t>(frame[6]) << 16) |
                            (static_cast<std::uint32_t>(frame[7]) << 24);
  EXPECT_EQ(len, frame.size() - kHeaderSize);
}

TEST(Wire, HelloRoundTrip) {
  const HelloMsg m = sample_hello();
  EXPECT_EQ(std::get<HelloMsg>(decode_frame(encode_frame(m))), m);
}

TEST(Wire, AssignShardRoundTrip) {
  const AssignShardMsg m = sample_assign();
  EXPECT_EQ(std::get<AssignShardMsg>(decode_frame(encode_frame(m))), m);
}

TEST(Wire, TaskSubmitRoundTrip) {
  TaskSubmitMsg m;
  m.shard_id = 1;
  m.epoch = 2;
  m.task_seq = 42;
  m.kind = TaskSubmitMsg::Kind::kRunShard;
  m.payload = std::string("spec\0with\x01nul", 13);
  EXPECT_EQ(std::get<TaskSubmitMsg>(decode_frame(encode_frame(m))), m);
}

TEST(Wire, TaskSubmitRejectsUnknownKind) {
  // kRunShard (1) is the only kind; every other byte is unknown. The
  // kind byte follows the frame header and the shard_id/epoch/task_seq
  // fields (4 + 4 + 8 bytes).
  const std::vector<std::uint8_t> frame = encode_frame(TaskSubmitMsg{});
  constexpr std::size_t kKindOffset = kHeaderSize + 4 + 4 + 8;
  ASSERT_GT(frame.size(), kKindOffset);
  ASSERT_EQ(frame[kKindOffset],
            static_cast<std::uint8_t>(TaskSubmitMsg::Kind::kRunShard));
  for (const int kind : {0, 2, 255}) {
    std::vector<std::uint8_t> bad = frame;
    bad[kKindOffset] = static_cast<std::uint8_t>(kind);
    EXPECT_THROW((void)decode_frame(bad), WireError) << "kind " << kind;
  }
}

TEST(Wire, TaskResultRoundTrip) {
  TaskResultMsg m;
  m.shard_id = 3;
  m.epoch = 1;
  m.task_seq = 77;
  m.status = TaskResultMsg::Status::kError;
  m.payload = "boom";
  EXPECT_EQ(std::get<TaskResultMsg>(decode_frame(encode_frame(m))), m);
}

TEST(Wire, HeartbeatRoundTrip) {
  HeartbeatMsg m;
  m.worker_id = 9;
  m.tick = 123456789ULL;
  m.active_shard = kNoShard;
  m.busy = 1;
  EXPECT_EQ(std::get<HeartbeatMsg>(decode_frame(encode_frame(m))), m);
}

TEST(Wire, CheckpointShardRoundTrip) {
  CheckpointShardMsg m;
  m.shard_id = 0;
  m.epoch = 4;
  m.ordinal = 17;
  m.checkpoint_json = std::string(100000, 'x');  // large payload path
  EXPECT_EQ(std::get<CheckpointShardMsg>(decode_frame(encode_frame(m))), m);
}

TEST(Wire, WorkerDeadRoundTrip) {
  WorkerDeadMsg m;
  m.worker_id = 2;
  m.shard_id = 1;
  m.epoch = 3;
  m.reason = "heartbeat timeout";
  EXPECT_EQ(std::get<WorkerDeadMsg>(decode_frame(encode_frame(m))), m);
}

TEST(Wire, EmptyStringsAndListsRoundTrip) {
  AssignShardMsg m;  // all strings empty, list empty
  EXPECT_EQ(std::get<AssignShardMsg>(decode_frame(encode_frame(m))), m);
}

TEST(Wire, TypeOfMatchesVariant) {
  EXPECT_EQ(type_of(Message{sample_hello()}), MsgType::kHello);
  EXPECT_EQ(type_of(Message{sample_assign()}), MsgType::kAssignShard);
  EXPECT_EQ(type_of(Message{TaskSubmitMsg{}}), MsgType::kTaskSubmit);
  EXPECT_EQ(type_of(Message{TaskResultMsg{}}), MsgType::kTaskResult);
  EXPECT_EQ(type_of(Message{HeartbeatMsg{}}), MsgType::kHeartbeat);
  EXPECT_EQ(type_of(Message{CheckpointShardMsg{}}), MsgType::kCheckpointShard);
  EXPECT_EQ(type_of(Message{WorkerDeadMsg{}}), MsgType::kWorkerDead);
}

TEST(Wire, TypeIndexIsDense) {
  EXPECT_EQ(type_index(MsgType::kHello), 0u);
  EXPECT_EQ(type_index(MsgType::kWorkerDead), kMsgTypeCount - 1);
  for (std::uint8_t raw = 1; raw <= kMsgTypeCount; ++raw) {
    EXPECT_TRUE(is_valid_type(raw));
  }
  EXPECT_FALSE(is_valid_type(0));
  EXPECT_FALSE(is_valid_type(kMsgTypeCount + 1));
}

TEST(Wire, ReaderRejectsOverRead) {
  WireWriter w;
  w.u32(5);
  const std::vector<std::uint8_t> buf = w.bytes();
  WireReader r(buf.data(), buf.size());
  EXPECT_EQ(r.u32(), 5u);
  EXPECT_THROW((void)r.u8(), WireError);
}

TEST(Wire, ReaderRejectsTrailingBytes) {
  WireWriter w;
  w.u8(1);
  w.u8(2);
  const std::vector<std::uint8_t> buf = w.bytes();
  WireReader r(buf.data(), buf.size());
  EXPECT_EQ(r.u8(), 1u);
  EXPECT_THROW(r.finish(), WireError);
}

TEST(Wire, StringLengthLieRejected) {
  WireWriter w;
  w.u32(1000);  // declares 1000 bytes...
  w.u8('x');    // ...provides 1
  const std::vector<std::uint8_t> buf = w.bytes();
  WireReader r(buf.data(), buf.size());
  EXPECT_THROW((void)r.str(), WireError);
}

TEST(Wire, F64BitExact) {
  WireWriter w;
  w.f64(0.1);
  w.f64(-0.0);
  w.f64(1e308);
  const std::vector<std::uint8_t> buf = w.bytes();
  WireReader r(buf.data(), buf.size());
  EXPECT_EQ(r.f64(), 0.1);
  const double nz = r.f64();
  EXPECT_EQ(nz, 0.0);
  EXPECT_TRUE(std::signbit(nz));
  EXPECT_EQ(r.f64(), 1e308);
  r.finish();
}

TEST(Wire, AssemblerReassemblesByteAtATime) {
  std::vector<std::uint8_t> stream = encode_frame(sample_assign());
  const std::vector<std::uint8_t> second = encode_frame(sample_hello());
  stream.insert(stream.end(), second.begin(), second.end());

  FrameAssembler assembler;
  std::vector<Message> out;
  for (const std::uint8_t b : stream) {
    assembler.feed(&b, 1);
    while (auto m = assembler.next()) {
      out.push_back(std::move(*m));
    }
  }
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(std::get<AssignShardMsg>(out[0]), sample_assign());
  EXPECT_EQ(std::get<HelloMsg>(out[1]), sample_hello());
  EXPECT_EQ(assembler.buffered(), 0u);
  EXPECT_FALSE(assembler.poisoned());
}

TEST(Wire, AssemblerPoisonsOnBadMagic) {
  FrameAssembler assembler;
  const std::uint8_t junk[kHeaderSize] = {0xFF, 0xFF, 0, 0, 0, 0, 0, 0};
  EXPECT_THROW(
      {
        assembler.feed(junk, sizeof(junk));
        (void)assembler.next();
      },
      WireError);
  EXPECT_TRUE(assembler.poisoned());
}

}  // namespace
}  // namespace impress::net
