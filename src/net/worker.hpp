// WorkerNode: the execution side of the campaign fabric (docs/fabric.md).
//
// A worker owns one Link to the coordinator and a local copy of the
// campaign configuration plus the target universe (config distribution is
// out of band, as with a RADICAL-Pilot agent bootstrap — the wire carries
// shard *membership* by name, seeds and checkpoint documents, never
// closures). State machine:
//
//   idle --ASSIGN_SHARD--> armed --TASK_SUBMIT(run_shard)--> running
//        --(campaign completes)--> idle        [TASK_RESULT sent + cached]
//        --(kill plan fires)-----> dead        [silent forever]
//
// Shard execution reuses the ordinary core::Campaign machinery: from
// scratch when the assignment carries no checkpoint, via the PR-5
// bit-exact Campaign::resume when it does. Checkpoints cut on the
// configured cadence are shipped as CHECKPOINT_SHARD frames through the
// in-memory CheckpointConfig sink.
//
// Duplicate TASK_SUBMITs for a (shard, epoch) already completed re-send
// the cached TASK_RESULT — the coordinator resubmits on silence, so the
// worker must be idempotent. Frames for a stale epoch are answered with
// the *current* knowledge only when epochs match; otherwise dropped.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "net/transport.hpp"
#include "protein/datasets.hpp"

namespace impress::net {

/// Failure injection: die while cutting the Nth checkpoint of the current
/// run (counted per run, not per lineage — a worker resuming a shard
/// counts from 1 again).
struct WorkerKillPlan {
  std::size_t die_at_checkpoint = 0;  ///< 0 = never die
  /// Ship the fatal checkpoint before going silent? Both settings must
  /// yield bit-identical campaign results (the failover contract).
  bool ship_final = false;
};

struct WorkerConfig {
  std::uint32_t worker_id = 0;
  /// Base campaign configuration; must match the coordinator's (validated
  /// against AssignShardMsg.campaign_name).
  core::CampaignConfig campaign;
  /// Checkpoint cadence (completions) for shard runs; must equal the
  /// coordinator's FabricConfig.checkpoint_every or bit-identity breaks.
  std::size_t checkpoint_every = 0;
  WorkerKillPlan kill;
  std::string build_tag = "impress-net/1";
};

class WorkerNode {
 public:
  /// `universe` must outlive the node (targets resolve by name from it).
  WorkerNode(WorkerConfig config, std::shared_ptr<Link> link,
             const std::vector<protein::DesignTarget>* universe);

  /// Drain the link and act on every deliverable frame. A run_shard
  /// submit executes the whole shard campaign synchronously inside this
  /// call. No-op once dead.
  void pump();

  [[nodiscard]] bool dead() const noexcept { return dead_; }
  [[nodiscard]] std::uint32_t id() const noexcept {
    return config_.worker_id;
  }
  /// Checkpoints cut by the current/last run (kill-plan bookkeeping).
  [[nodiscard]] std::size_t checkpoints_cut() const noexcept {
    return checkpoints_this_run_;
  }

 private:
  void handle(const Message& m);
  void run_shard(const TaskSubmitMsg& submit);
  void send(const Message& m);

  WorkerConfig config_;
  std::shared_ptr<Link> link_;
  const std::vector<protein::DesignTarget>* universe_;
  bool hello_sent_ = false;
  bool dead_ = false;

  std::optional<AssignShardMsg> assignment_;
  std::size_t checkpoints_this_run_ = 0;
  /// Last terminal result per (shard, epoch), for idempotent resubmits.
  std::map<std::pair<std::uint32_t, std::uint32_t>, TaskResultMsg>
      result_cache_;
};

}  // namespace impress::net
