#include "hpc/analytics.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "common/stats.hpp"

namespace impress::hpc {

namespace {

struct RawTimes {
  double schedule = -1.0;
  double setup = -1.0;
  double start = -1.0;
  double stop = -1.0;
};

std::map<std::string, RawTimes> collect(std::span<const obs::Mark> marks) {
  std::map<std::string, RawTimes> out;
  for (const auto& e : marks) {
    auto& r = out[e.entity];
    if (e.event == events::kSchedule && r.schedule < 0.0) r.schedule = e.time;
    else if (e.event == events::kExecSetupStart && r.setup < 0.0) r.setup = e.time;
    else if (e.event == events::kExecStart && r.start < 0.0) r.start = e.time;
    else if (e.event == events::kExecStop && r.stop < 0.0) r.stop = e.time;
  }
  return out;
}

}  // namespace

std::map<std::string, double> phase_durations(
    std::span<const obs::Mark> marks) {
  // Pair *_start with the next matching *_stop per entity.
  struct Open {
    double bootstrap = -1.0;
    double setup = -1.0;
    double exec = -1.0;
  };
  std::unordered_map<std::string, Open> open;
  std::map<std::string, double> out{
      {"bootstrap", 0.0}, {"exec_setup", 0.0}, {"running", 0.0}};
  for (const obs::Mark& e : marks) {
    auto& o = open[e.entity];
    if (e.event == events::kBootstrapStart) {
      o.bootstrap = e.time;
    } else if (e.event == events::kBootstrapStop && o.bootstrap >= 0.0) {
      out["bootstrap"] += e.time - o.bootstrap;
      o.bootstrap = -1.0;
    } else if (e.event == events::kExecSetupStart) {
      o.setup = e.time;
    } else if (e.event == events::kExecStart) {
      if (o.setup >= 0.0) {
        out["exec_setup"] += e.time - o.setup;
        o.setup = -1.0;
      }
      o.exec = e.time;
    } else if (e.event == events::kExecStop && o.exec >= 0.0) {
      out["running"] += e.time - o.exec;
      o.exec = -1.0;
    }
  }
  return out;
}

std::vector<TaskTiming> task_timings(std::span<const obs::Mark> marks) {
  std::vector<TaskTiming> out;
  for (const auto& [uid, r] : collect(marks)) {
    if (r.schedule < 0.0 || r.setup < 0.0 || r.start < 0.0 || r.stop < 0.0)
      continue;
    out.push_back(TaskTiming{.uid = uid,
                             .wait = r.setup - r.schedule,
                             .setup = r.start - r.setup,
                             .run = r.stop - r.start});
  }
  return out;
}

TimingSummary summarize_timings(std::span<const obs::Mark> marks) {
  const auto timings = task_timings(marks);
  TimingSummary s;
  s.tasks = timings.size();
  if (timings.empty()) return s;
  std::vector<double> waits, setups, runs;
  for (const auto& t : timings) {
    waits.push_back(t.wait);
    setups.push_back(t.setup);
    runs.push_back(t.run);
  }
  s.mean_wait = common::mean(waits);
  s.p95_wait = common::percentile(waits, 95.0);
  s.mean_setup = common::mean(setups);
  s.mean_run = common::mean(runs);
  const double overhead = s.mean_wait + s.mean_setup;
  const double total = overhead + s.mean_run;
  if (total > 0.0) s.overhead_fraction = overhead / total;
  return s;
}

std::vector<double> concurrency_series(std::span<const obs::Mark> marks,
                                       std::size_t bins, double t_end) {
  std::vector<double> out(bins, 0.0);
  if (bins == 0) return out;
  const auto raw = collect(marks);
  if (t_end <= 0.0)
    for (const auto& [uid, r] : raw) t_end = std::max(t_end, r.stop);
  if (t_end <= 0.0) return out;
  const double bin_w = t_end / static_cast<double>(bins);
  for (const auto& [uid, r] : raw) {
    if (r.start < 0.0) continue;
    const double stop = r.stop < 0.0 ? t_end : r.stop;
    for (std::size_t b = 0; b < bins; ++b) {
      const double b0 = static_cast<double>(b) * bin_w;
      const double b1 = b0 + bin_w;
      const double overlap =
          std::max(0.0, std::min(stop, b1) - std::max(r.start, b0));
      out[b] += overlap / bin_w;
    }
  }
  return out;
}

RetrySummary summarize_retries(std::span<const obs::Mark> marks) {
  RetrySummary s;
  for (const auto& e : marks) {
    if (e.event == events::kRetry) ++s.retries;
    else if (e.event == events::kTimeout) ++s.timeouts;
    else if (e.event == events::kRequeue) ++s.requeues;
    else if (e.event == events::kPilotFailed) ++s.pilot_failures;
  }
  for (const auto& [uid, attempts] : attempt_counts(marks)) {
    if (attempts > 1) ++s.tasks_retried;
    s.max_attempts = std::max(s.max_attempts, attempts);
  }
  return s;
}

std::map<std::string, int> attempt_counts(std::span<const obs::Mark> marks) {
  std::map<std::string, int> out;
  for (const auto& e : marks)
    if (e.event == events::kSubmit) ++out[e.entity];
  return out;
}

std::size_t peak_concurrency(std::span<const obs::Mark> marks) {
  std::vector<std::pair<double, int>> edges;
  for (const auto& [uid, r] : collect(marks)) {
    if (r.start < 0.0 || r.stop < 0.0) continue;
    edges.emplace_back(r.start, +1);
    edges.emplace_back(r.stop, -1);
  }
  std::sort(edges.begin(), edges.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second < b.second;  // close before open at equal times
  });
  int cur = 0;
  int peak = 0;
  for (const auto& [t, d] : edges) {
    cur += d;
    peak = std::max(peak, cur);
  }
  return static_cast<std::size_t>(peak);
}

double GpuCostModel::batch_latency_s(std::uint32_t n,
                                     double speed_factor) const {
  if (n == 0) return 0.0;
  return (setup_s + static_cast<double>(n) * per_item_s) / speed_factor;
}

double StreamStats::speedup() const noexcept {
  if (batched_gpu_s <= 0.0) return 1.0;
  return unbatched_gpu_s / batched_gpu_s;
}

BatchTuner::BatchTuner(Config config, std::uint32_t initial_batch)
    : config_(config),
      batch_(std::clamp(initial_batch, config.min_batch, config.max_batch)) {
  if (config_.min_batch == 0 || config_.min_batch > config_.max_batch)
    throw std::invalid_argument("BatchTuner: need 0 < min_batch <= max_batch");
  if (config_.ewma_alpha <= 0.0 || config_.ewma_alpha > 1.0)
    throw std::invalid_argument("BatchTuner: ewma_alpha must be in (0, 1]");
}

std::optional<std::uint32_t> BatchTuner::observe(double now_s) {
  if (last_s_ < 0.0) {
    last_s_ = now_s;
    return std::nullopt;
  }
  const double gap = std::max(0.0, now_s - last_s_);
  last_s_ = now_s;
  ewma_gap_ = have_gap_
                  ? config_.ewma_alpha * gap +
                        (1.0 - config_.ewma_alpha) * ewma_gap_
                  : gap;
  have_gap_ = true;
  // Simultaneous completions (gap -> 0) mean arrivals outpace any linger
  // budget: saturate at max_batch rather than divide by zero.
  const std::uint32_t want =
      ewma_gap_ <= 1e-9
          ? config_.max_batch
          : static_cast<std::uint32_t>(std::clamp(
                1.0 + std::floor(config_.max_linger_s / ewma_gap_),
                static_cast<double>(config_.min_batch),
                static_cast<double>(config_.max_batch)));
  if (want == batch_) return std::nullopt;
  batch_ = want;
  ++decisions_;
  return batch_;
}

BatchAccountant::BatchAccountant(BatchingConfig config)
    : config_(config),
      batch_size_(config.policy.max_batch),
      tuner_(config.tuner, config.policy.max_batch) {
  if (config_.policy.max_batch == 0)
    throw std::invalid_argument("BatchAccountant: max_batch must be > 0");
  if (!(config_.speed_factor > 0.0))
    throw std::invalid_argument("BatchAccountant: speed_factor must be > 0");
}

void BatchAccountant::close_batch(StreamStats& stats, std::uint32_t n,
                                  const GpuCostModel& cost) const {
  if (n == 0) return;
  ++stats.batches;
  stats.max_batch = std::max(stats.max_batch, n);
  stats.batched_gpu_s += cost.batch_latency_s(n, config_.speed_factor);
}

void BatchAccountant::request(Stream& stream, const GpuCostModel& cost,
                              double t) {
  ++stream.stats.requests;
  stream.stats.unbatched_gpu_s += cost.batch_latency_s(1, config_.speed_factor);
  if (stream.open > 0 && t - stream.open_since > config_.policy.max_linger_s) {
    close_batch(stream.stats, stream.open, cost);
    stream.open = 0;
  }
  if (stream.open == 0) stream.open_since = t;
  if (++stream.open >= batch_size_) {
    close_batch(stream.stats, stream.open, cost);
    stream.open = 0;
  }
}

void BatchAccountant::fold_request(double t) {
  request(fold_, config_.fold_cost, t);
}

void BatchAccountant::design_request(double t) {
  request(design_, config_.design_cost, t);
}

void BatchAccountant::fold_completion(double t) {
  if (!config_.adaptive) return;
  if (const auto chosen = tuner_.observe(t)) batch_size_ = *chosen;
}

BatchingReport BatchAccountant::report() const {
  BatchingReport out{.fold = fold_.stats,
                     .design = design_.stats,
                     .batch_size = batch_size_,
                     .tuner_decisions = tuner_.decisions()};
  close_batch(out.fold, fold_.open, config_.fold_cost);
  close_batch(out.design, design_.open, config_.design_cost);
  return out;
}

namespace {

// Last value of `key` on `span`, empty when unset.
std::string_view attr_of(const obs::SpanRecord& span, std::string_view key) {
  std::string_view out;
  for (const auto& [k, v] : span.attrs)
    if (k == key) out = v;
  return out;
}

}  // namespace

BatchingReport replay_batching(const std::vector<obs::SpanRecord>& trace,
                               const BatchingConfig& config) {
  std::unordered_map<obs::SpanId, const obs::SpanRecord*> by_id;
  for (const auto& span : trace) by_id.emplace(span.id, &span);
  const auto parent_of = [&](const obs::SpanRecord& span) {
    const auto it = by_id.find(span.parent);
    return it == by_id.end() ? nullptr : it->second;
  };
  // The stage span `task` runs under, if its name starts with `prefix`.
  const auto stage_of = [&](const obs::SpanRecord& task,
                            std::string_view prefix) {
    const obs::SpanRecord* parent = parent_of(task);
    return parent != nullptr && parent->name.starts_with(prefix) ? parent
                                                                 : nullptr;
  };

  enum class Kind { kFold, kDesign, kCompletion };
  struct Event {
    std::uint64_t seq;
    double time;
    Kind kind;
  };
  std::vector<Event> events;
  for (const auto& span : trace) {
    if (span.name == "fold.predict") {
      events.push_back({span.open_seq, span.start, Kind::kFold});
    } else if (span.category == obs::categories::kAttempt && span.closed()) {
      // The generator's work ran iff the attempt ended DONE or FAILED
      // (injected faults and cancellations stop it first).
      const std::string_view outcome = attr_of(span, "outcome");
      const obs::SpanRecord* task = parent_of(span);
      if ((outcome == "DONE" || outcome == "FAILED") && task != nullptr &&
          stage_of(*task, "stage.generate.") != nullptr)
        events.push_back({span.close_seq, span.end, Kind::kDesign});
    } else if (span.category == obs::categories::kTask &&
               attr_of(span, "outcome") == "DONE") {
      // The coordinator observes a fold completion when it closes the
      // task's stage span.
      const obs::SpanRecord* stage = stage_of(span, "stage.fold.");
      if (stage != nullptr && stage->closed())
        events.push_back({stage->close_seq, stage->end, Kind::kCompletion});
    }
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.seq < b.seq; });

  BatchAccountant accountant(config);
  for (const auto& e : events) {
    switch (e.kind) {
      case Kind::kFold: accountant.fold_request(e.time); break;
      case Kind::kDesign: accountant.design_request(e.time); break;
      case Kind::kCompletion: accountant.fold_completion(e.time); break;
    }
  }
  return accountant.report();
}

double slowest_gpu_speed(const std::vector<NodeSpec>& nodes) {
  double slowest = 0.0;
  for (const auto& node : nodes)
    if (node.gpus > 0)
      slowest = slowest == 0.0 ? node.gpu_speed_factor
                               : std::min(slowest, node.gpu_speed_factor);
  return slowest > 0.0 ? slowest : 1.0;
}

}  // namespace impress::hpc
