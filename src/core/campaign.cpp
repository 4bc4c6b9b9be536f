#include "core/campaign.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <vector>

#include "common/lockdep.hpp"
#include "common/time_util.hpp"
#include "hpc/analytics.hpp"
#include "hpc/gantt.hpp"
#include "runtime/session.hpp"

namespace impress::core {

CampaignConfig im_rp_campaign(std::uint64_t seed) {
  CampaignConfig cfg;
  cfg.name = "IM-RP";
  cfg.protocol = calibration::im_rp_protocol();
  cfg.coordinator.sequential = false;
  cfg.pilot = calibration::amarel_pilot(rp::SchedulerPolicy::kBackfill);
  cfg.session.seed = seed;
  return cfg;
}

CampaignConfig cont_v_campaign(std::uint64_t seed) {
  CampaignConfig cfg;
  cfg.name = "CONT-V";
  cfg.protocol = calibration::cont_v_protocol();
  cfg.coordinator.sequential = true;
  cfg.pilot = calibration::amarel_pilot(rp::SchedulerPolicy::kFifo);
  cfg.session.seed = seed;
  return cfg;
}

std::size_t CampaignResult::total_trajectories() const {
  std::size_t n = 0;
  for (const auto& t : trajectories) n += t.history.size();
  return n;
}

Campaign::Campaign(CampaignConfig config) : config_(std::move(config)) {}

CampaignResult resume_campaign(const CampaignConfig& config,
                               const CampaignResult& previous,
                               const std::vector<protein::DesignTarget>& targets) {
  // Best recorded design per target (by composite score across all
  // trajectories of the previous run).
  std::map<std::string, std::pair<double, std::string>> best;
  for (const auto& t : previous.trajectories) {
    for (const auto& rec : t.history) {
      const double comp = rec.metrics.composite();
      auto [it, inserted] =
          best.emplace(t.target_name, std::make_pair(comp, rec.sequence));
      if (!inserted && comp > it->second.first)
        it->second = {comp, rec.sequence};
    }
  }

  // Rebuild the target list with the resumed starting receptors. The
  // landscape (and therefore the ground truth) is unchanged; only the
  // starting point moves.
  auto resumed = targets;
  for (auto& target : resumed) {
    const auto it = best.find(target.name);
    if (it == best.end()) continue;
    target.start_receptor = protein::Sequence::from_string(it->second.second);
  }

  auto cfg = config;
  if (cfg.name == previous.name) cfg.name += "-resumed";
  Campaign campaign(cfg);
  return campaign.run(resumed);
}

CampaignResult Campaign::run(
    const std::vector<protein::DesignTarget>& targets) {
  rp::Session session(config_.session);
  return execute(session, targets, nullptr);
}

CampaignResult Campaign::resume(
    const std::vector<protein::DesignTarget>& targets,
    const CampaignCheckpoint& checkpoint) {
  if (checkpoint.campaign_name != config_.name)
    throw std::invalid_argument(
        "Campaign::resume: checkpoint is for campaign '" +
        checkpoint.campaign_name + "', not '" + config_.name + "'");
  if (checkpoint.seed != config_.session.seed)
    throw std::invalid_argument("Campaign::resume: seed mismatch");
  if (checkpoint.targets != targets.size())
    throw std::invalid_argument("Campaign::resume: target count mismatch");

  rp::Session session(config_.session, checkpoint);
  return execute(session, targets, &checkpoint);
}

CampaignResult Campaign::execute(
    rp::Session& session, const std::vector<protein::DesignTarget>& targets,
    const CampaignCheckpoint* resume_from) {
  obs::Observability& ob = session.observability();
  obs::SpanId campaign_span = 0;
  if (obs::Tracer& tracer = ob.tracer(); tracer.enabled()) {
    if (resume_from != nullptr) {
      // The root span is still open inside the preloaded trace; keep its
      // id so stage/pipeline spans parent under it and the close below
      // merges into the original record.
      campaign_span = resume_from->campaign_span;
    } else {
      campaign_span = tracer.begin(session.now(), "campaign." + config_.name,
                                   obs::categories::kCampaign);
      tracer.attr(campaign_span, "targets", std::to_string(targets.size()));
      tracer.attr(campaign_span, "seed",
                  std::to_string(config_.session.seed));
    }
  }
  if (resume_from != nullptr &&
      resume_from->pilots.size() != 1 + config_.extra_pilots.size())
    throw std::invalid_argument(
        "Campaign::resume: checkpoint has " +
        std::to_string(resume_from->pilots.size()) + " pilot(s), config has " +
        std::to_string(1 + config_.extra_pilots.size()));
  const auto pilot = [&] {
    if (resume_from == nullptr) return session.submit_pilot(config_.pilot);
    if (resume_from->pilots.empty())
      throw std::invalid_argument("Campaign::resume: checkpoint has no pilot");
    return session.submit_pilot(config_.pilot, resume_from->pilots.front());
  }();
  for (std::size_t i = 0; i < config_.extra_pilots.size(); ++i) {
    if (resume_from == nullptr)
      (void)session.submit_pilot(config_.extra_pilots[i]);
    else
      (void)session.submit_pilot(config_.extra_pilots[i],
                                 resume_from->pilots[i + 1]);
  }
  auto coordinator_config = config_.coordinator;
  coordinator_config.trace_root = campaign_span;

  std::shared_ptr<const SequenceGenerator> generator = config_.generator;
  if (!generator)
    generator = std::make_shared<MpnnGenerator>(config_.sampler);
  if (resume_from != nullptr)
    generator->restore_checkpoint_state(resume_from->generator_state);

  // Checkpoint sink: invoked by the coordinator at quiesce. Ordering
  // matters for bit-exact resume — the write marker (span + counter) is
  // recorded BEFORE the observability state is harvested, so the document
  // includes its own marker and a resumed tracer/registry continues
  // exactly where the uninterrupted run's would.
  std::size_t local_writes = 0;
  const std::uint64_t prior_ordinal =
      resume_from != nullptr ? resume_from->ordinal : 0;
  if (config_.checkpoint.enabled()) {
    coordinator_config.checkpoint.every_n_completions =
        config_.checkpoint.every_n_completions;
    coordinator_config.checkpoint.every_n_pipelines =
        config_.checkpoint.every_n_pipelines;
    coordinator_config.checkpoint_sink =
        [&, campaign_span](const CoordinatorCheckpoint& coord) {
          CampaignCheckpoint doc;
          doc.ordinal = prior_ordinal + ++local_writes;
          if (obs::Tracer& tracer = ob.tracer(); tracer.enabled()) {
            const obs::SpanId mark =
                tracer.instant(session.now(), "checkpoint.write",
                               obs::categories::kDecision, campaign_span);
            tracer.attr(mark, "ordinal", std::to_string(doc.ordinal));
          }
          ob.registry()
              .counter(obs::names::kCheckpointsWritten)
              ->inc();
          doc.campaign_name = config_.name;
          doc.seed = config_.session.seed;
          doc.targets = targets.size();
          doc.now = session.now();
          doc.profiler_events = ob.tracer().marks();
          if (ob.tracer().enabled()) {
            doc.trace = ob.tracer().spans();
            doc.trace_next_seq = ob.tracer().next_seq();
          }
          doc.campaign_span = campaign_span;
          if (ob.registry().enabled()) doc.metrics = ob.registry().snapshot();
          doc.uid_counters = session.uids().counters();
          doc.task_counters = session.task_manager().counters();
          doc.pilots = session.checkpoint_pilots();
          doc.coordinator = coord;
          doc.generator_state = generator->checkpoint_state();
          if (!config_.checkpoint.directory.empty())
            save_checkpoint(doc, config_.checkpoint.path());
          if (config_.checkpoint.sink) config_.checkpoint.sink(doc);
          if (config_.checkpoint.halt_after > 0 &&
              local_writes >= config_.checkpoint.halt_after &&
              session.mode() == rp::ExecutionMode::kSimulated)
            session.engine().stop();
        };
  }
  Coordinator coordinator(session, coordinator_config);

  if (resume_from != nullptr) {
    std::map<std::string, const protein::DesignTarget*> by_name;
    for (const auto& target : targets) by_name[target.name] = &target;
    std::vector<std::unique_ptr<Pipeline>> pipelines;
    pipelines.reserve(resume_from->coordinator.pipelines.size());
    for (const auto& snap : resume_from->coordinator.pipelines) {
      const auto it = by_name.find(snap.target_name);
      if (it == by_name.end())
        throw std::invalid_argument(
            "Campaign::resume: checkpoint references unknown target '" +
            snap.target_name + "'");
      pipelines.push_back(std::make_unique<Pipeline>(Pipeline::restore(
          snap, *it->second, config_.protocol, generator,
          fold::AlphaFold(config_.predictor))));
    }
    coordinator.restore(resume_from->coordinator, std::move(pipelines));
  } else {
    for (const auto& target : targets) {
      auto pipeline = std::make_unique<Pipeline>(
          target.name, target, target.start_complex(), config_.protocol,
          generator, fold::AlphaFold(config_.predictor),
          session.fork_rng("pipeline." + target.name));
      coordinator.add_pipeline(std::move(pipeline));
    }
  }

  coordinator.run();

  CampaignResult r;
  r.name = config_.name;
  r.trajectories = coordinator.results();
  r.targets = targets.size();

  double makespan_s = pilot->recorder().latest_end();
  for (const auto& p : session.pilots())
    makespan_s = std::max(makespan_s, p->recorder().latest_end());
  r.makespan_h = common::seconds_to_hours(makespan_s);
  if (config_.extra_pilots.empty()) {
    r.utilization = pilot->recorder().summarize(0.0, makespan_s);
    r.energy_kwh = pilot->recorder().energy_kwh();
  } else {
    // Capacity-weighted merge across pilots (the single-pilot branch above
    // stays bit-identical to the pre-multi-pilot harvest). Each summary is
    // a fraction of its own pilot's capacity over the campaign span, so
    // weights are core/GPU counts; energy is additive.
    r.utilization.span_seconds = makespan_s;
    double cores_sum = 0.0;
    double gpus_sum = 0.0;
    for (const auto& p : session.pilots()) {
      const auto u = p->recorder().summarize(0.0, makespan_s);
      const double cores = static_cast<double>(p->recorder().total_cores());
      const double gpus = static_cast<double>(p->recorder().total_gpus());
      cores_sum += cores;
      gpus_sum += gpus;
      r.utilization.cpu_allocated += cores * u.cpu_allocated;
      r.utilization.cpu_active += cores * u.cpu_active;
      r.utilization.gpu_allocated += gpus * u.gpu_allocated;
      r.utilization.gpu_active += gpus * u.gpu_active;
      r.energy_kwh += p->recorder().energy_kwh();
    }
    if (cores_sum > 0.0) {
      r.utilization.cpu_allocated /= cores_sum;
      r.utilization.cpu_active /= cores_sum;
    }
    if (gpus_sum > 0.0) {
      r.utilization.gpu_allocated /= gpus_sum;
      r.utilization.gpu_active /= gpus_sum;
    }
  }
  {
    // One copy of the tracer's mark log feeds every mark harvest; it is
    // freed before the obs snapshot.
    const std::vector<obs::Mark> marks = ob.tracer().marks();
    for (const auto& [phase, seconds] : hpc::phase_durations(marks))
      r.phase_hours[phase] = common::seconds_to_hours(seconds);
    r.gantt = hpc::render_gantt(marks, makespan_s);
    r.pilot_failures = hpc::summarize_retries(marks).pilot_failures;
    r.attempts = hpc::attempt_counts(marks);
  }
  // Timeline series stay single-recorder views: bins from different
  // pilots' recorders have no meaningful pointwise merge, so they always
  // render the primary pilot.
  r.cpu_series = pilot->recorder().cpu_series(100);
  r.gpu_series = pilot->recorder().gpu_series(100);

  r.root_pipelines = coordinator.pipelines_submitted();
  r.subpipelines = coordinator.subpipelines_spawned();
  r.generator_tasks = coordinator.generator_tasks();
  r.refine_tasks = coordinator.refine_tasks();
  r.fold_tasks = coordinator.fold_tasks();
  r.fold_retries = coordinator.fold_retries();
  r.failed_tasks = coordinator.failed_tasks();

  r.task_retries = session.task_manager().retried();
  r.task_timeouts = session.task_manager().timed_out();
  r.task_requeues = session.task_manager().requeued();

  // Observability harvest: close the root span at the simulated makespan
  // (the session clock already sits there) and snapshot everything. The
  // session has drained, so counter totals are exact.
  if (campaign_span != 0) ob.tracer().end(campaign_span, session.now());
  if (ob.tracer().enabled()) r.trace = ob.tracer().spans();
  if (ob.registry().enabled()) r.metrics = ob.registry().snapshot();
  r.lockdep = common::lockdep::report();
  return r;
}

}  // namespace impress::core
