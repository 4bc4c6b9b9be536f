// Fig 5 reproduction: IM-RP total CPU/GPU utilization, execution time and
// the runtime phase breakdown — Bootstrap (RP start-up), Exec setup
// (sandbox/launch-script creation per task) and Running (task execution),
// as the paper's Fig 5 legend defines them.
//
// Paper: average CPU ~88%, GPU ~61%, makespan 38.3 h. Expected shape:
// sustained multi-task occupancy (several concurrent AlphaFold feature
// stages), regular GPU activity from interleaved inference/ProteinMPNN
// tasks, longer makespan than CONT-V because the adaptive protocol
// evaluates more trajectories.

#include <cstdio>
#include <string>

#include "common/histogram.hpp"
#include "core/campaign.hpp"
#include "core/report.hpp"
#include "hpc/analytics.hpp"
#include "protein/datasets.hpp"
#include "runtime/session.hpp"

using namespace impress;

int main(int argc, char** argv) {
  std::uint64_t seed = 5;
  if (argc > 1) seed = std::stoull(argv[1]);

  const auto targets = protein::four_pdz_domains();
  // Run once through the raw layers (instead of core::Campaign) so the
  // session's lifecycle marks are still in scope for the per-task
  // analytics below.
  const auto config = core::im_rp_campaign(seed);
  rp::Session session(config.session);
  const auto pilot = session.submit_pilot(config.pilot);
  core::Coordinator coordinator(session, config.coordinator);
  auto generator = std::make_shared<core::MpnnGenerator>(config.sampler);
  for (const auto& target : targets)
    coordinator.add_pipeline(std::make_unique<core::Pipeline>(
        target.name, target, target.start_complex(), config.protocol,
        generator, fold::AlphaFold(config.predictor),
        session.fork_rng("pipeline." + target.name)));
  coordinator.run();

  // Also produce the aggregated CampaignResult view for the figure.
  core::Campaign campaign(core::im_rp_campaign(seed));
  const auto result = campaign.run(targets);

  std::printf("# Fig 5: IM-RP total GPU/CPU utilization and execution time "
              "(seed %llu)\n\n",
              static_cast<unsigned long long>(seed));
  std::printf("%s\n",
              core::render_utilization_figure(
                  result, "IM-RP utilization timeline (intensity ramp "
                          "' .:-=+*#%@' = 0-100%)")
                  .c_str());
  std::printf(
      "workload: %zu trajectories, %zu sub-pipelines, %zu fold tasks "
      "(%zu Stage-6 retries), %zu generator tasks\n",
      result.total_trajectories(), result.subpipelines, result.fold_tasks,
      result.fold_retries, result.generator_tasks);

  const auto table =
      session.observability().tracer().visit_marks(hpc::tabulate);
  const auto timing = hpc::summarize_timings(table);
  std::printf(
      "per-task analytics: n=%zu mean queue wait %.0f s (p95 %.0f s), mean "
      "exec setup %.0f s, mean run %.0f s, non-running fraction %.1f%% "
      "(queueing is resource contention, not runtime overhead); peak task "
      "concurrency %zu\n",
      timing.tasks, timing.mean_wait, timing.p95_wait, timing.mean_setup,
      timing.mean_run, timing.overhead_fraction * 100.0,
      hpc::peak_concurrency(table));
  // Wait-time distribution: where the asynchronous backlog actually sits.
  common::Histogram wait_hist(0.0, 8.0, 8);
  for (const auto& t : hpc::task_timings(table))
    wait_hist.add(t.wait / 3600.0);
  std::printf("task queue-wait distribution (hours):\n%s",
              wait_hist.render(40, "h").c_str());
  std::printf("paper reference: CPU ~88%%, GPU ~61%%, 38.3 h\n");
  return 0;
}
