// Campaign checkpoints: the versioned, crash-consistent document that
// captures an *in-flight* campaign at a coordinator quiesce point, and
// the loader that rebuilds it (docs/persistence.md).
//
// A checkpoint extends the session-dump idea from "archive a finished
// run" to "cut a running one": coordinator state (pipelines mid-cycle,
// parked task submissions, sub-pipeline budgets), runtime state (clock,
// pilots, executor rng streams, marks/trace/metrics, uid and task
// counters), and every live rng stream's position.
// Campaign::resume() reconstructs all of it so a checkpointed-then-
// resumed campaign reproduces the uninterrupted CampaignResult
// bit-for-bit (simulated mode; pinned by Determinism.* tests).
//
// Serialization notes: every uint64 whose exact bits matter (rng state,
// span ids, sequence numbers) is encoded as a hex string —
// JSON numbers are doubles here and would silently round above 2^53.
// Doubles rely on the parser/dumper bit-exact round-trip pinned by
// tests/common/test_json.cpp.

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "core/coordinator.hpp"
#include "runtime/session.hpp"

namespace impress::core {

/// Everything needed to resume a campaign mid-flight. Built by the
/// campaign's checkpoint sink at a coordinator quiesce point; consumed by
/// Campaign::resume(), which hands the inherited runtime layer straight to
/// the restoring rp::Session.
struct CampaignCheckpoint : rp::SessionRestore {
  std::string campaign_name;
  std::uint64_t seed = 0;
  std::size_t targets = 0;   ///< root target count (config validation)
  std::uint64_t ordinal = 0; ///< 1-based index of this checkpoint

  // Runtime layer beyond rp::SessionRestore.
  obs::SpanId campaign_span = 0;  ///< still-open campaign root span
  std::vector<rp::PilotRestore> pilots;

  // Protocol layer.
  CoordinatorCheckpoint coordinator;
  /// Never set: checkpoints carry no fold memo. Kept only because the
  /// perfbench harness still reads it; the next benchmark change drops
  /// those reads and this member with them.
  struct RetiredFoldMemo {
    std::vector<std::vector<std::uint64_t>> shards;
  };
  std::optional<RetiredFoldMemo> fold_cache;
  /// Opaque per-generator state (SequenceGenerator::checkpoint_state);
  /// null for stateless generators.
  common::Json generator_state;
};

/// Serialize (schema kind "impress.checkpoint", version 5 — version 1 is
/// the finished-campaign session dump) straight to compact JSON text, keys
/// in sorted order: the bytes save_checkpoint writes (less the trailing
/// newline) and fabric workers ship. A chain whose trace
/// protein::ideal_trace built carries its "ca_origin" instead of a "ca"
/// array, and is rebuilt by ideal_trace on load.
[[nodiscard]] std::string checkpoint_text(const CampaignCheckpoint& checkpoint);

/// The same document as a tree (Json::parse of checkpoint_text), for
/// callers that inspect sections; its dump() equals checkpoint_text.
[[nodiscard]] common::Json to_json(const CampaignCheckpoint& checkpoint);

/// Rebuild from a document. Throws std::invalid_argument on kind/version
/// mismatch and on a missing or mistyped member.
[[nodiscard]] CampaignCheckpoint campaign_checkpoint_from_json(
    const common::Json& doc);

/// Write checkpoint_text plus a newline crash-consistently
/// (common::write_file_atomic: temp file + fsync + rename) so an
/// interrupted write leaves the previous checkpoint intact and loadable.
void save_checkpoint(const CampaignCheckpoint& checkpoint,
                     const std::string& path);
[[nodiscard]] CampaignCheckpoint load_checkpoint(const std::string& path);

}  // namespace impress::core
