#include "net/worker.hpp"

#include <stdexcept>
#include <string>

#include "common/json.hpp"
#include "core/checkpoint.hpp"
#include "core/session_dump.hpp"
#include "core/shard.hpp"

namespace impress::net {

namespace {

/// Thrown by a shard run's checkpoint sink at the kill plan's checkpoint:
/// the modelled crash, which run_shard catches apart from a failed shard.
struct WorkerKilled {};

}  // namespace

WorkerNode::WorkerNode(WorkerConfig config, std::shared_ptr<Link> link,
                       const std::vector<protein::DesignTarget>* universe)
    : config_(std::move(config)),
      link_(std::move(link)),
      universe_(universe) {}

void WorkerNode::pump() {
  if (dead_) {
    return;
  }
  if (!hello_sent_) {
    send(HelloMsg{.worker_id = config_.worker_id,
                  .wire_version = kWireVersion,
                  .slots = 1,
                  .build_tag = config_.build_tag});
    hello_sent_ = true;
  }
  while (!dead_) {
    std::optional<Message> m = link_->poll();
    if (!m) {
      break;
    }
    handle(*m);
  }
}

void WorkerNode::handle(const Message& m) {
  if (const auto* assign = std::get_if<AssignShardMsg>(&m)) {
    // Last assignment wins; a duplicate (resubmission) is harmless.
    assignment_ = *assign;
    return;
  }
  if (const auto* hb = std::get_if<HeartbeatMsg>(&m)) {
    send(HeartbeatMsg{
        .worker_id = config_.worker_id,
        .tick = hb->tick,  // echo the probe's clock
        .active_shard = assignment_ ? assignment_->shard_id : kNoShard,
        .busy = 0});
    return;
  }
  if (const auto* submit = std::get_if<TaskSubmitMsg>(&m)) {
    run_shard(*submit);
    return;
  }
  if (std::get_if<WorkerDeadMsg>(&m) != nullptr) {
    return;  // peer obituary; nothing to clean up with one slot
  }
  // HELLO / TASK_RESULT / CHECKPOINT_SHARD never flow coordinator->worker.
}

void WorkerNode::run_shard(const TaskSubmitMsg& submit) {
  // Idempotency: a completed (shard, epoch) re-serves its cached result.
  const auto key = std::make_pair(submit.shard_id, submit.epoch);
  if (const auto it = result_cache_.find(key); it != result_cache_.end()) {
    TaskResultMsg cached = it->second;
    cached.task_seq = submit.task_seq;
    send(cached);
    return;
  }
  if (!assignment_ || assignment_->shard_id != submit.shard_id ||
      assignment_->epoch != submit.epoch) {
    // The matching ASSIGN_SHARD was dropped or is still in flight; the
    // coordinator's resubmission timer will retry the pair.
    return;
  }
  const AssignShardMsg assign = *assignment_;

  TaskResultMsg result;
  result.shard_id = submit.shard_id;
  result.epoch = submit.epoch;
  result.task_seq = submit.task_seq;
  try {
    if (assign.campaign_name != config_.campaign.name) {
      throw std::runtime_error("campaign mismatch: assigned '" +
                               assign.campaign_name + "', configured '" +
                               config_.campaign.name + "'");
    }
    // Each cut of this shard run is formatted from the previous one.
    core::CheckpointWriter writer;
    core::CampaignConfig shard_config = core::shard_campaign_config(
        config_.campaign, config_.checkpoint_every);
    shard_config.session.seed = assign.seed;
    checkpoints_this_run_ = 0;
    shard_config.checkpoint.sink =
        [this, &assign, &writer](const core::CampaignCheckpoint& doc) {
          ++checkpoints_this_run_;
          const bool fatal =
              config_.kill.die_at_checkpoint > 0 &&
              checkpoints_this_run_ >= config_.kill.die_at_checkpoint;
          // Without ship_final the crash lands before the document
          // leaves the process.
          if (!fatal || config_.kill.ship_final) {
            send(CheckpointShardMsg{
                .shard_id = assign.shard_id,
                .epoch = assign.epoch,
                .ordinal = doc.ordinal,
                .checkpoint_json = std::string(writer.format(doc))});
          }
          if (fatal) {
            throw WorkerKilled{};
          }
        };
    if (config_.kill.die_at_checkpoint > 0 &&
        shard_config.checkpoint.every_n_completions == 0) {
      throw std::runtime_error(
          "WorkerKillPlan requires a checkpoint cadence");
    }

    // Resolve shard membership against the local universe, in wire order.
    std::vector<protein::DesignTarget> targets;
    targets.reserve(assign.target_names.size());
    for (const std::string& name : assign.target_names) {
      const protein::DesignTarget* found = nullptr;
      for (const protein::DesignTarget& t : *universe_) {
        if (t.name == name) {
          found = &t;
          break;
        }
      }
      if (found == nullptr) {
        throw std::runtime_error("unknown target '" + name + "'");
      }
      targets.push_back(*found);
    }

    core::Campaign campaign(shard_config);
    core::CampaignResult shard_result;
    if (assign.checkpoint_json.empty()) {
      shard_result = campaign.run(targets);
    } else {
      const core::CampaignCheckpoint doc = core::campaign_checkpoint_from_json(
          common::Json::parse(assign.checkpoint_json));
      shard_result = campaign.resume(targets, doc);
    }

    result.status = TaskResultMsg::Status::kOk;
    result.payload = to_json(shard_result).dump();
  } catch (const WorkerKilled&) {
    // This process "crashed" at its checkpoint: go silent and close the
    // link — the kernel would send FIN/RST for a dead process, and the
    // coordinator uses that as its prompt, unambiguous death signal (the
    // heartbeat timeout covers silent partitions instead).
    dead_ = true;
    link_->close();
    return;
  } catch (const std::exception& e) {
    result.status = TaskResultMsg::Status::kError;
    result.payload = e.what();
  }
  result_cache_[key] = result;
  assignment_.reset();
  send(result);
}

void WorkerNode::send(const Message& m) {
  if (!dead_) {
    link_->send(m);
  }
}

}  // namespace impress::net
