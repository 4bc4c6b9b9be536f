#include "core/shard.hpp"

#include <algorithm>
#include <iterator>
#include <map>
#include <stdexcept>
#include <utility>

namespace impress::core {

ShardPlan ShardPlan::contiguous(
    const std::vector<protein::DesignTarget>& targets, std::size_t shards) {
  const std::size_t n = targets.size();
  std::size_t k = shards == 0 ? 1 : shards;
  if (n > 0 && k > n) k = n;
  ShardPlan plan;
  if (n == 0) {
    plan.shards.push_back(ShardSpec{.id = 0, .target_names = {}});
    return plan;
  }
  const std::size_t base = n / k;
  const std::size_t extra = n % k;
  std::size_t next = 0;
  for (std::size_t s = 0; s < k; ++s) {
    ShardSpec spec;
    spec.id = static_cast<std::uint32_t>(s);
    const std::size_t count = base + (s < extra ? 1 : 0);
    for (std::size_t i = 0; i < count; ++i) {
      spec.target_names.push_back(targets[next++].name);
    }
    plan.shards.push_back(std::move(spec));
  }
  return plan;
}

std::vector<protein::DesignTarget> ShardPlan::targets_for(
    std::size_t shard, const std::vector<protein::DesignTarget>& all) const {
  if (shard >= shards.size()) {
    throw std::invalid_argument("ShardPlan::targets_for: no shard " +
                                std::to_string(shard));
  }
  std::map<std::string, const protein::DesignTarget*> by_name;
  for (const auto& t : all) by_name[t.name] = &t;
  std::vector<protein::DesignTarget> out;
  out.reserve(shards[shard].target_names.size());
  for (const std::string& name : shards[shard].target_names) {
    const auto it = by_name.find(name);
    if (it == by_name.end()) {
      throw std::invalid_argument(
          "ShardPlan::targets_for: unknown target '" + name + "'");
    }
    out.push_back(*it->second);
  }
  return out;
}

CampaignConfig shard_campaign_config(const CampaignConfig& config,
                                     std::size_t checkpoint_every) {
  CampaignConfig shard = config;
  shard.checkpoint = CheckpointConfig{};
  if (checkpoint_every > 0) {
    shard.checkpoint.every_n_completions = checkpoint_every;
    // A sink (even a discarding one) enables the cadence, so the engine
    // schedule matches any run that ships documents over the wire.
    shard.checkpoint.sink = [](const CampaignCheckpoint&) {};
  }
  return shard;
}

CampaignResult run_sharded(const CampaignConfig& config,
                           const std::vector<protein::DesignTarget>& targets,
                           const ShardPlan& plan,
                           std::size_t checkpoint_every) {
  std::vector<CampaignResult> results;
  results.reserve(plan.shards.size());
  const CampaignConfig shard_config =
      shard_campaign_config(config, checkpoint_every);
  for (std::size_t s = 0; s < plan.shards.size(); ++s) {
    const std::vector<protein::DesignTarget> shard_targets =
        plan.targets_for(s, targets);
    Campaign campaign(shard_config);
    results.push_back(campaign.run(shard_targets));
  }
  return merge_shard_results(std::move(results));
}

CampaignResult merge_shard_results(std::vector<CampaignResult> shard_results) {
  if (shard_results.empty()) {
    return CampaignResult{};
  }
  if (shard_results.size() == 1) {
    return std::move(shard_results.front());
  }

  CampaignResult merged;
  merged.name = shard_results.front().name;

  double span_sum = 0.0;
  for (std::size_t s = 0; s < shard_results.size(); ++s) {
    CampaignResult& r = shard_results[s];

    merged.trajectories.insert(merged.trajectories.end(),
                               std::make_move_iterator(r.trajectories.begin()),
                               std::make_move_iterator(r.trajectories.end()));

    merged.makespan_h = std::max(merged.makespan_h, r.makespan_h);
    merged.energy_kwh += r.energy_kwh;
    for (const auto& [phase, hours] : r.phase_hours) {
      merged.phase_hours[phase] += hours;
    }

    // Span-weighted average of the utilization rates; the merged span is
    // the longest shard's (shards run concurrently in the fabric).
    const double w = r.utilization.span_seconds;
    span_sum += w;
    merged.utilization.span_seconds =
        std::max(merged.utilization.span_seconds, r.utilization.span_seconds);
    merged.utilization.cpu_allocated += w * r.utilization.cpu_allocated;
    merged.utilization.cpu_active += w * r.utilization.cpu_active;
    merged.utilization.gpu_allocated += w * r.utilization.gpu_allocated;
    merged.utilization.gpu_active += w * r.utilization.gpu_active;

    if (!r.gantt.empty()) {
      merged.gantt += "=== shard " + std::to_string(s) + " ===\n";
      merged.gantt += r.gantt;
      if (merged.gantt.back() != '\n') merged.gantt += '\n';
    }

    merged.root_pipelines += r.root_pipelines;
    merged.subpipelines += r.subpipelines;
    merged.generator_tasks += r.generator_tasks;
    merged.refine_tasks += r.refine_tasks;
    merged.fold_tasks += r.fold_tasks;
    merged.fold_retries += r.fold_retries;
    merged.failed_tasks += r.failed_tasks;
    merged.targets += r.targets;
    merged.task_retries += r.task_retries;
    merged.task_timeouts += r.task_timeouts;
    merged.task_requeues += r.task_requeues;
    merged.pilot_failures += r.pilot_failures;

    // Task uids restart per shard session, so namespace the keys.
    const std::string prefix = "s" + std::to_string(s) + "/";
    for (auto& [uid, attempts] : r.attempts) {
      merged.attempts[prefix + uid] = attempts;
    }

    merged.lockdep.insert(merged.lockdep.end(),
                          std::make_move_iterator(r.lockdep.begin()),
                          std::make_move_iterator(r.lockdep.end()));
  }
  if (span_sum > 0.0) {
    merged.utilization.cpu_allocated /= span_sum;
    merged.utilization.cpu_active /= span_sum;
    merged.utilization.gpu_allocated /= span_sum;
    merged.utilization.gpu_active /= span_sum;
  }
  // cpu_series/gpu_series, trace and metrics stay empty: per-bin series
  // from different shard clocks have no meaningful cross-shard merge.
  return merged;
}

}  // namespace impress::core
