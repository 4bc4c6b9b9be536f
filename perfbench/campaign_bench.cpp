// Campaign benchmark: times whole core::Campaigns in simulated mode and
// checks every result (perfbench/README.md).
//
//   campaign_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--work-dir DIR] [--trace-out FILE]
//   campaign_bench --sweep [--seed N]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// variant and prints the per-layer metrics. Either way the last line of
// standard output is one JSON object {correct, attempted, failed,
// metrics}, and the exit code is 1 when any correctness check failed.
//
// Everything runs on the calling thread: simulated mode drives the event
// loop there, so the span recorder below keeps a plain stack of open
// spans.

#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/fs.hpp"
#include "common/json.hpp"
#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/session_dump.hpp"
#include "obs/obs.hpp"
#include "protein/datasets.hpp"

using namespace impress;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point g_epoch = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - g_epoch).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of a sorted sample.
double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

// Highest of p50/p90/p99/p99.9 with at least ten samples beyond it.
double top_supported_percentile(std::size_t n) {
  double top = 50.0;
  for (const double p : {90.0, 99.0, 99.9})
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) top = p;
  return top;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// --- provenance -----------------------------------------------------------

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
    s = s.c_str();  // drop trailing NULs
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

void print_provenance(std::uint64_t seed) {
  std::printf("# provenance: hardware_threads=%u compiler=\"%s\" build_type=%s "
              "cpu=\"%s\" seed=%llu\n",
              std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE, cpu_model().c_str(),
              static_cast<unsigned long long>(seed));
}

// --- spans ------------------------------------------------------------------

struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  int parent = -1;   ///< index into Recorder::spans, -1 = root
  int campaign = 0;  ///< which traced campaign execution this belongs to
};

// In-memory span store, written out when the run ends.
class Recorder {
 public:
  int begin(const char* name) {
    std::lock_guard lock(mutex_);
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, now_s(), 0.0, parent, campaign_});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void end(int id) {
    std::lock_guard lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = now_s();
    open_.pop_back();
  }
  void set_campaign(int id) { campaign_ = id; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::mutex mutex_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  int campaign_ = 0;
};

// Times `fn` under a span named `name`.
template <typename Fn>
auto spanned(Recorder& rec, const char* name, Fn&& fn) {
  const int id = rec.begin(name);
  struct Close {
    Recorder& rec;
    int id;
    ~Close() { rec.end(id); }
  } close{rec, id};
  return fn();
}

// Times every call into the wrapped generator; delegates everything else,
// so a campaign run through it is bit-identical to one without it.
class TimedGenerator final : public core::SequenceGenerator {
 public:
  TimedGenerator(std::shared_ptr<const core::SequenceGenerator> inner,
                 Recorder& rec)
      : inner_(std::move(inner)), rec_(&rec) {}

  [[nodiscard]] std::vector<mpnn::ScoredSequence> generate(
      const protein::Complex& complex,
      const protein::FitnessLandscape& landscape,
      common::Rng& rng) const override {
    return spanned(*rec_, "mpnn.generate",
                   [&] { return inner_->generate(complex, landscape, rng); });
  }
  void observe(const protein::Sequence& sequence,
               double reward) const override {
    inner_->observe(sequence, reward);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] common::Json checkpoint_state() const override {
    return inner_->checkpoint_state();
  }
  void restore_checkpoint_state(const common::Json& state) const override {
    inner_->restore_checkpoint_state(state);
  }

 private:
  std::shared_ptr<const core::SequenceGenerator> inner_;
  Recorder* rec_;
};

// --- workloads ----------------------------------------------------------------

enum class Arm { kImrpFig3, kContV };

struct Spec {
  Arm arm = Arm::kImrpFig3;
  std::size_t targets = 0;
  bool observed = false;             ///< session tracing + metrics on
  std::size_t checkpoint_every = 0;  ///< completions per cut
};

// `main` is the timed campaign. The checkpoint metrics come from the
// checkpoint phase: `main` itself when it checkpoints, else `probe`, a
// small checkpointed campaign of the same arm run beside it. The phase
// resumes from its middle cut, ordinal ceil(cuts / 2): how many cuts a
// campaign makes depends on the seed, so a fixed ordinal would make the
// resumed share of the run depend on it too.
struct Workload {
  const char* name;
  Spec main;
  Spec probe;
  [[nodiscard]] bool main_checkpoints() const {
    return main.checkpoint_every > 0;
  }
  [[nodiscard]] const Spec& ckpt_spec() const {
    return main_checkpoints() ? main : probe;
  }
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all{
      {"imrp-fig3-2240", {Arm::kImrpFig3, 2240, false, 0},
       {Arm::kImrpFig3, 8, true, 40}},
      {"contv-4480", {Arm::kContV, 4480, false, 0}, {Arm::kContV, 8, true, 20}},
      {"imrp-ckpt-70", {Arm::kImrpFig3, 70, true, 50}, {}},
  };
  return all;
}

core::CampaignConfig make_config(const Spec& spec, std::uint64_t seed) {
  auto cfg = spec.arm == Arm::kImrpFig3 ? core::im_rp_campaign(seed)
                                        : core::cont_v_campaign(seed);
  if (spec.arm == Arm::kImrpFig3) {
    // The Fig 3 set-up (bench/bench_fig3.cpp).
    cfg.protocol.adaptivity_in_final_cycle = false;
    cfg.protocol.max_subpipelines_per_target = 1;
  }
  cfg.session.enable_tracing = spec.observed;
  cfg.session.enable_metrics = spec.observed;
  cfg.generator = std::make_shared<core::MpnnGenerator>(cfg.sampler);
  return cfg;
}

struct Prepared {
  std::vector<protein::DesignTarget> targets;
  core::CampaignConfig config;
};

Prepared prepare(const Spec& spec, std::uint64_t seed) {
  if (spec.targets == 0) return {};
  return {protein::pdz_benchmark(spec.targets), make_config(spec, seed)};
}

// Directory removed with everything in it when the owner goes away.
class TempDir {
 public:
  explicit TempDir(const fs::path& parent) {
    fs::create_directories(parent);
    std::string tmpl = (parent / "ckpt-XXXXXX").string();
    if (mkdtemp(tmpl.data()) == nullptr)
      throw std::runtime_error("mkdtemp failed under " + parent.string());
    path_ = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

// --- checks -----------------------------------------------------------------

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  void fail(const std::string& what) {
    ++failed;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
};

// Digest of the session dump; `strip_obs` drops the trace/metrics keys,
// which only observed runs carry.
std::uint64_t digest(const core::CampaignResult& r, bool strip_obs) {
  auto doc = core::to_json(r);
  if (strip_obs) {
    doc.as_object().erase("trace");
    doc.as_object().erase("metrics");
  }
  return fnv1a(doc.dump());
}

// Per-result invariants. Returns false (and records why) on a violation.
bool check_result(const core::CampaignResult& r,
                  const std::vector<protein::DesignTarget>& targets,
                  const std::string& what, Tally& tally) {
  if (r.failed_tasks != 0) {
    tally.fail(what + ": failed_tasks=" + std::to_string(r.failed_tasks));
    return false;
  }
  std::map<std::string, std::size_t> per_target;
  for (const auto& t : r.trajectories) per_target[t.target_name] += t.history.size();
  for (const auto& t : targets)
    if (per_target[t.name] == 0) {
      tally.fail(what + ": no trajectory for target " + t.name);
      return false;
    }
  const auto& c = r.fold_cache;
  if (c.misses != c.entries + c.evictions + c.duplicate_discards) {
    tally.fail(what + ": fold cache does not conserve misses");
    return false;
  }
  return true;
}

// Expects every digest under one key to match the first one seen.
class DigestBook {
 public:
  void expect(const std::string& key, std::uint64_t d, Tally& tally) {
    const auto [it, inserted] = seen_.emplace(key, d);
    if (!inserted && it->second != d)
      tally.fail(key + ": differs between repetitions");
  }

 private:
  std::map<std::string, std::uint64_t> seen_;
};

// --- campaign executions ------------------------------------------------------

// What the checkpoint sink saw during one execution.
struct CutLog {
  std::uint64_t bytes = 0;
  std::size_t cuts = 0;
  /// When set, every cut's file is hard-linked here as <ordinal>.json.
  /// Each cut replaces the checkpoint by rename, so the link keeps that
  /// cut's document without copying it.
  fs::path archive;
  // Traced sink only: the largest document and its counts.
  std::uint64_t max_bytes = 0;
  common::Json largest;
  std::size_t fold_cache_entries = 0;
  std::size_t trace_spans = 0;
  std::size_t profiler_events = 0;
};

void archive_cut(const CutLog& log, const std::string& path,
                 std::uint64_t ordinal) {
  if (!log.archive.empty())
    fs::create_hard_link(path, log.archive / (std::to_string(ordinal) + ".json"));
}

// The archived middle cut, or an empty path when nothing was cut.
fs::path middle_cut(const CutLog& log) {
  if (log.cuts == 0) return {};
  return log.archive / (std::to_string((log.cuts + 1) / 2) + ".json");
}

// Untraced sink: the campaign writes each document itself; this sink sizes
// the file and archives it.
void attach_file_sink(core::CampaignConfig& cfg, const Spec& spec,
                      const fs::path& dir, CutLog& log) {
  cfg.checkpoint.directory = dir.string();
  cfg.checkpoint.every_n_completions = spec.checkpoint_every;
  const std::string path = cfg.checkpoint.path();
  cfg.checkpoint.sink = [&log, path](const core::CampaignCheckpoint& doc) {
    log.bytes += fs::file_size(path);
    ++log.cuts;
    archive_cut(log, path, doc.ordinal);
  };
}

// Traced sink: performs save_checkpoint's public steps itself, each under
// its own span, and keeps the largest document for the section breakdown.
void attach_traced_sink(core::CampaignConfig& cfg, const Spec& spec,
                        const fs::path& dir, CutLog& log, Recorder& rec) {
  cfg.checkpoint.directory.clear();
  cfg.checkpoint.every_n_completions = spec.checkpoint_every;
  const std::string path = (dir / "checkpoint.json").string();
  cfg.checkpoint.sink = [&log, &rec, path](const core::CampaignCheckpoint& doc) {
    auto json = spanned(rec, "core.checkpoint.to_json",
                        [&] { return core::to_json(doc); });
    const std::string text =
        spanned(rec, "common.json.dump", [&] { return json.dump() + "\n"; });
    spanned(rec, "common.fs.write_atomic",
            [&] { common::write_file_atomic(path, text); });
    log.bytes += text.size();
    ++log.cuts;
    archive_cut(log, path, doc.ordinal);
    if (text.size() > log.max_bytes) {
      log.max_bytes = text.size();
      log.largest = std::move(json);
      log.trace_spans = doc.trace.size();
      log.profiler_events = doc.profiler_events.size();
      log.fold_cache_entries = 0;
      if (doc.fold_cache)
        for (const auto& shard : doc.fold_cache->shards)
          log.fold_cache_entries += shard.size();
    }
  };
}

struct Timed {
  core::CampaignResult result;
  double seconds = 0.0;
};

Timed timed_run(const core::CampaignConfig& cfg, const Prepared& p) {
  const double t0 = now_s();
  core::Campaign campaign(cfg);
  auto result = campaign.run(p.targets);
  return {std::move(result), now_s() - t0};
}

Timed timed_resume(const core::CampaignConfig& cfg, const Prepared& p,
                   const fs::path& mid) {
  const double t0 = now_s();
  const auto checkpoint = core::load_checkpoint(mid.string());
  core::Campaign campaign(cfg);
  auto result = campaign.resume(p.targets, checkpoint);
  return {std::move(result), now_s() - t0};
}

// --- end-to-end (untraced) run ------------------------------------------------

constexpr std::size_t kSetupReps = 9;
constexpr std::size_t kMinReps = 3;
constexpr std::size_t kPlainReps = 3;     ///< plain runs per checkpoint phase
constexpr std::size_t kPhaseSeeds = 4;    ///< checkpoint phase: seed .. seed+3
constexpr double kProbeShare = 0.25;      ///< probe time per main-run time

struct CkptPhase {
  double ckpt_wall = 0.0;
  std::vector<double> plain_walls;
  double resume = 0.0;
  std::uint64_t bytes = 0;
  std::size_t cuts = 0;
  std::size_t fold_tasks = 0;
};

// Fresh, empty directory for one execution's cut archive.
fs::path fresh_archive(const fs::path& dir) {
  const fs::path archive = dir / "cuts";
  fs::remove_all(archive);
  fs::create_directories(archive);
  return archive;
}

// One checkpoint phase: checkpointed run, the same campaign without
// checkpoints (kPlainReps times, it is short), and a resume from the
// middle cut. Every execution is checked.
CkptPhase checkpoint_phase(const Spec& spec, const Prepared& p,
                           const fs::path& dir, const std::string& tag,
                           Tally& tally, DigestBook& book) {
  CkptPhase out;
  CutLog log;
  log.archive = fresh_archive(dir);
  auto cfg = p.config;
  attach_file_sink(cfg, spec, dir / "run", log);
  fs::create_directories(dir / "run");
  ++tally.attempted;
  const auto ckpt = timed_run(cfg, p);
  out.ckpt_wall = ckpt.seconds;
  out.bytes = log.bytes;
  out.cuts = log.cuts;
  out.fold_tasks = ckpt.result.fold_tasks;
  const auto ckpt_digest = digest(ckpt.result, false);
  if (check_result(ckpt.result, p.targets, tag + " checkpointed run", tally))
    book.expect(tag + " checkpointed run", ckpt_digest, tally);
  book.expect(tag + " checkpoint bytes", log.bytes, tally);

  for (std::size_t i = 0; i < kPlainReps; ++i) {
    ++tally.attempted;
    const auto plain = timed_run(p.config, p);
    out.plain_walls.push_back(plain.seconds);
    if (check_result(plain.result, p.targets, tag + " plain run", tally))
      book.expect(tag + " plain run", digest(plain.result, false), tally);
  }

  ++tally.attempted;
  const fs::path mid = middle_cut(log);
  if (mid.empty()) {
    tally.fail(tag + ": the checkpointed run cut no checkpoint");
    return out;
  }
  CutLog resume_log;
  auto resume_cfg = p.config;
  attach_file_sink(resume_cfg, spec, dir / "run", resume_log);
  const auto resumed = timed_resume(resume_cfg, p, mid);
  out.resume = resumed.seconds;
  if (check_result(resumed.result, p.targets, tag + " resume", tally) &&
      digest(resumed.result, false) != ckpt_digest)
    tally.fail(tag + ": resumed session dump differs from the uninterrupted run");
  return out;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 5;
  double seconds = 10.0;
  bool trace = false;
  bool sweep = false;
  fs::path work_dir = ".bench_build/work";
  fs::path trace_out;
};

struct Setup {
  Prepared main;  ///< the timed campaign, at --seed
  /// Checkpoint-phase campaigns (the probe, or the main campaign when it
  /// checkpoints) at seeds seed .. seed+kPhaseSeeds-1. How many cuts a
  /// campaign makes, and so what the phase costs, varies from seed to
  /// seed; cycling over several keeps one seed from setting the medians.
  std::vector<Prepared> phase;
  std::unique_ptr<TempDir> dir;
  double seconds = 0.0;  ///< median over kSetupReps

  [[nodiscard]] const Prepared& ckpt() const { return phase.front(); }
};

// Set-up: targets, config and generator for each campaign, plus the temp
// directory. Repeated and timed; the last one is kept.
Setup set_up(const Workload& w, const Args& args) {
  Setup s;
  std::vector<double> times;
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    s = Setup{};
    const double t0 = now_s();
    s.main = prepare(w.main, args.seed);
    for (std::uint64_t k = 0; k < kPhaseSeeds; ++k)
      s.phase.push_back(prepare(w.ckpt_spec(), args.seed + k));
    s.dir = std::make_unique<TempDir>(args.work_dir);
    times.push_back(now_s() - t0);
  }
  s.seconds = median(times);
  return s;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

common::Json metric(double value, const char* unit) {
  common::Json::Object m;
  m["value"] = value;
  m["unit"] = std::string(unit);
  return common::Json(std::move(m));
}

int finish(const Tally& tally, common::Json::Object metrics) {
  common::Json::Object out;
  out["correct"] = tally.failed == 0;
  out["attempted"] = tally.attempted;
  out["failed"] = tally.failed;
  out["metrics"] = common::Json(std::move(metrics));
  std::printf("%s\n", common::Json(std::move(out)).dump().c_str());
  std::fflush(stdout);
  return tally.failed == 0 ? 0 : 1;
}

// At least kMinReps repetitions, then more while the next one, at the mean
// repetition time so far, is expected to end within the budget.
bool another_rep(std::size_t reps, double t_start, double budget) {
  if (reps < kMinReps) return true;
  const double elapsed = now_s() - t_start;
  return elapsed * static_cast<double>(reps + 1) / static_cast<double>(reps) <=
         budget;
}

void print_series(const char* name, const std::vector<double>& xs) {
  std::printf("# %s:", name);
  for (const double x : xs) std::printf(" %.4f", x);
  std::printf("\n");
}

int run_end_to_end(const Workload& w, const Args& args) {
  Tally tally;
  DigestBook book;
  const Setup s = set_up(w, args);

  std::vector<double> walls, rates, ckpt_walls, plain_walls, resumes, mbs;
  std::vector<double> cuts;
  std::size_t phase_runs = 0;
  // One checkpoint phase, at the next of the phase seeds.
  const auto run_phase = [&] {
    const std::size_t k = phase_runs++ % s.phase.size();
    const auto ph = checkpoint_phase(
        w.ckpt_spec(), s.phase[k], s.dir->path(),
        std::string(w.name) + " seed " + std::to_string(args.seed + k), tally,
        book);
    ckpt_walls.push_back(ph.ckpt_wall);
    plain_walls.insert(plain_walls.end(), ph.plain_walls.begin(),
                       ph.plain_walls.end());
    resumes.push_back(ph.resume);
    mbs.push_back(static_cast<double>(ph.bytes) / 1e6);
    cuts.push_back(static_cast<double>(ph.cuts));
    return ph;
  };
  double main_time = 0.0, probe_time = 0.0;
  const double t_start = now_s();
  for (std::size_t rep = 0; another_rep(rep, t_start, args.seconds); ++rep) {
    if (w.main_checkpoints()) {
      const auto ph = run_phase();
      walls.push_back(ph.ckpt_wall);
      rates.push_back(static_cast<double>(ph.fold_tasks) / ph.ckpt_wall);
      continue;
    }
    ++tally.attempted;
    const auto run = timed_run(s.main.config, s.main);
    walls.push_back(run.seconds);
    rates.push_back(static_cast<double>(run.result.fold_tasks) / run.seconds);
    main_time += run.seconds;
    if (check_result(run.result, s.main.targets, w.name, tally))
      book.expect(w.name, digest(run.result, false), tally);
    // Probe phases take kProbeShare of the main campaign's time.
    while (probe_time < kProbeShare * main_time) {
      const double t0 = now_s();
      run_phase();
      probe_time += now_s() - t0;
    }
  }

  const double wall = median(walls);
  std::printf("# %s: %zu reps, wall_s median %.4f; checkpoint phase: %zu runs\n",
              w.name, walls.size(), wall, ckpt_walls.size());
  print_series("cuts per checkpointed run", cuts);
  print_series("wall_s per rep", walls);
  print_series("checkpointed wall_s per run", ckpt_walls);
  print_series("plain wall_s per run", plain_walls);
  print_series("resume_s per run", resumes);
  common::Json::Object m;
  m["wall_s"] = metric(wall, "s");
  m["fold_tasks_per_s"] = metric(median(rates), "1/s");
  m["setup_s"] = metric(s.seconds, "s");
  m["peak_rss_mb"] = metric(peak_rss_mb(), "MB");
  m["checkpoint_mb_written"] = metric(median(mbs), "MB");
  m["checkpoint_overhead_x"] =
      metric(median(ckpt_walls) / median(plain_walls), "x");
  m["resume_s"] = metric(median(resumes), "s");
  return finish(tally, std::move(m));
}

// --- traced run ------------------------------------------------------------

// Self time per span: duration minus what its children cover.
std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = spans[i].end - spans[i].start;
  for (const auto& sp : spans)
    if (sp.parent >= 0)
      self[static_cast<std::size_t>(sp.parent)] -= sp.end - sp.start;
  return self;
}

// Per-layer metrics of one traced repetition: name -> (value, unit).
using LayerValues = std::map<std::string, std::pair<double, const char*>>;

const std::vector<std::string>& section_keys() {
  static const std::vector<std::string> keys{
      "profiler_events", "trace", "metrics", "pilots", "coordinator",
      "fold_cache"};
  return keys;
}

void write_chrome_trace(const fs::path& path, const std::vector<Span>& spans,
                        const Args& args, const char* workload) {
  if (path.empty()) return;
  if (path.has_parent_path()) fs::create_directories(path.parent_path());
  common::Json::Array events;
  events.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& sp = spans[i];
    common::Json::Object args_obj;
    args_obj["campaign"] = sp.campaign;
    args_obj["parent"] = sp.parent;
    common::Json::Object ev;
    ev["name"] = std::string(sp.name);
    ev["cat"] = std::string("perfbench");
    ev["ph"] = std::string("X");
    ev["ts"] = sp.start * 1e6;
    ev["dur"] = (sp.end - sp.start) * 1e6;
    ev["pid"] = 1;
    ev["tid"] = sp.campaign;
    ev["args"] = common::Json(std::move(args_obj));
    events.emplace_back(std::move(ev));
  }
  common::Json::Object other;
  other["workload"] = std::string(workload);
  other["seed"] = std::to_string(args.seed);
  other["hardware_threads"] =
      static_cast<std::size_t>(std::thread::hardware_concurrency());
  other["compiler"] = std::string(PERFBENCH_COMPILER);
  other["build_type"] = std::string(PERFBENCH_BUILD_TYPE);
  other["cpu"] = cpu_model();
  common::Json::Object doc;
  doc["traceEvents"] = common::Json(std::move(events));
  doc["displayTimeUnit"] = std::string("ms");
  doc["otherData"] = common::Json(std::move(other));
  std::ofstream os(path, std::ios::binary);
  os << common::Json(std::move(doc)).dump() << "\n";
  std::printf("# chrome trace: %s (%zu spans)\n", path.string().c_str(),
              spans.size());
}

void print_self_table(const char* workload, const std::vector<Span>& spans) {
  const auto self = self_times(spans);
  std::map<std::string, std::pair<std::size_t, double>> by_name;
  double total = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& [calls, secs] = by_name[spans[i].name];
    ++calls;
    secs += self[i];
    total += self[i];
  }
  std::vector<std::pair<std::string, std::pair<std::size_t, double>>> rows(
      by_name.begin(), by_name.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.second > b.second.second;
  });
  std::printf("# per-layer self time, %s (all traced executions)\n", workload);
  std::printf("#   %-26s %9s %12s %7s\n", "span", "calls", "self_s", "share");
  for (const auto& [name, cs] : rows)
    std::printf("#   %-26s %9zu %12.4f %6.1f%%\n", name.c_str(), cs.first,
                cs.second, total > 0.0 ? 100.0 * cs.second / total : 0.0);
}

int run_traced(const Workload& w, const Args& args) {
  Tally tally;
  DigestBook book;
  const Setup s = set_up(w, args);
  const Prepared& ck = s.ckpt();
  const Spec& ck_spec = w.ckpt_spec();
  Recorder rec;
  int next_campaign = 0;

  // The traced configs: metrics on, the timing generator wrapper in place.
  const auto traced = [&](core::CampaignConfig cfg) {
    cfg.session.enable_metrics = true;
    cfg.generator = std::make_shared<TimedGenerator>(cfg.generator, rec);
    return cfg;
  };

  std::vector<LayerValues> samples;
  std::vector<double> untraced_walls, traced_walls;
  const double t_start = now_s();
  for (std::size_t rep = 0; another_rep(rep, t_start, args.seconds); ++rep) {
    LayerValues v;
    const fs::path dir = s.dir->path();
    fs::create_directories(dir / "run");

    // Untraced reference run of the main campaign.
    CutLog ref_log;
    auto ref_cfg = s.main.config;
    if (w.main_checkpoints())
      attach_file_sink(ref_cfg, w.main, dir / "run", ref_log);
    ++tally.attempted;
    const auto ref = timed_run(ref_cfg, s.main);
    untraced_walls.push_back(ref.seconds);
    const auto ref_digest = digest(ref.result, true);
    if (check_result(ref.result, s.main.targets, w.name, tally))
      book.expect(std::string(w.name) + " untraced", ref_digest, tally);

    // Traced main run. `ck_log` records the checkpoint phase's cuts.
    CutLog ck_log;
    ck_log.archive = fresh_archive(dir);
    auto cfg = traced(s.main.config);
    if (w.main_checkpoints())
      attach_traced_sink(cfg, w.main, dir, ck_log, rec);
    const int run_id = ++next_campaign;
    rec.set_campaign(run_id);
    ++tally.attempted;
    core::CampaignResult result = spanned(rec, "core.campaign.run", [&] {
      core::Campaign campaign(cfg);
      return campaign.run(s.main.targets);
    });
    if (check_result(result, s.main.targets, std::string(w.name) + " traced",
                     tally) &&
        digest(result, true) != ref_digest)
      tally.fail(std::string(w.name) +
                 ": traced run differs from the untraced one");

    // Checkpoint phase of a checkpoint-off workload: the traced probe.
    core::CampaignResult probe;
    int ckpt_id = run_id;
    if (!w.main_checkpoints()) {
      auto probe_cfg = traced(ck.config);
      attach_traced_sink(probe_cfg, ck_spec, dir, ck_log, rec);
      ckpt_id = ++next_campaign;
      rec.set_campaign(ckpt_id);
      ++tally.attempted;
      probe = spanned(rec, "core.campaign.run", [&] {
        core::Campaign campaign(probe_cfg);
        return campaign.run(ck.targets);
      });
      check_result(probe, ck.targets, std::string(w.name) + " traced probe",
                   tally);
    }
    const core::CampaignResult& ck_result =
        w.main_checkpoints() ? result : probe;

    // Resume from the middle cut, through load_checkpoint's public steps.
    const int resume_id = ++next_campaign;
    rec.set_campaign(resume_id);
    ++tally.attempted;
    const fs::path mid = middle_cut(ck_log);
    if (mid.empty()) {
      tally.fail(std::string(w.name) + ": the traced run cut no checkpoint");
    } else {
      CutLog resume_log;
      auto resume_cfg = traced(ck.config);
      attach_traced_sink(resume_cfg, ck_spec, dir / "run", resume_log, rec);
      const auto resumed = spanned(rec, "bench.resume", [&] {
        const std::string text = spanned(rec, "common.fs.read", [&] {
          std::ifstream is(mid, std::ios::binary);
          std::ostringstream ss;
          ss << is.rdbuf();
          return ss.str();
        });
        const auto doc = spanned(rec, "common.json.parse",
                                 [&] { return common::Json::parse(text); });
        const auto checkpoint = spanned(rec, "core.checkpoint.from_json", [&] {
          return core::campaign_checkpoint_from_json(doc);
        });
        return spanned(rec, "core.campaign.resume", [&] {
          core::Campaign campaign(resume_cfg);
          return campaign.resume(ck.targets, checkpoint);
        });
      });
      if (check_result(resumed, ck.targets,
                       std::string(w.name) + " traced resume", tally) &&
          digest(resumed, false) != digest(ck_result, false))
        tally.fail(std::string(w.name) +
                   ": traced resume differs from the uninterrupted run");
    }

    // Harvest this repetition's spans: the main run's, and the busy time
    // per span name in the checkpoint phase (resume spans keyed apart).
    const auto& spans = rec.spans();
    const auto self = self_times(spans);
    std::map<std::string, double> busy;
    std::vector<double> gen_us;
    double run_s = 0.0, run_self = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto& sp = spans[i];
      const double d = sp.end - sp.start;
      const std::string name = sp.name;
      if (sp.campaign == run_id && name == "core.campaign.run") {
        run_s = d;
        run_self = self[i];
      } else if (sp.campaign == run_id && name == "mpnn.generate") {
        gen_us.push_back(d * 1e6);
      }
      if (sp.campaign == ckpt_id) busy[name] += d;
      if (sp.campaign == resume_id) busy["resume:" + name] += d;
    }
    traced_walls.push_back(run_s);
    std::sort(gen_us.begin(), gen_us.end());
    double gen_busy = 0.0;
    for (const double us : gen_us) gen_busy += us * 1e-6;
    const double top = top_supported_percentile(gen_us.size());
    const auto ft = static_cast<double>(result.fold_tasks);
    const auto count = [](auto n) { return static_cast<double>(n); };
    const auto counter = [&](std::string_view n) {
      return count(result.metrics.counter(n));
    };
    const double ticks = counter(obs::names::kSchedulerTicks);
    const double placements = counter(obs::names::kSchedulerPlacements);

    v["core.campaign.run_s"] = {run_s, "s"};
    v["core.campaign.self_s"] = {run_self, "s"};
    v["core.campaign.self_us_per_fold_task"] = {run_self / ft * 1e6, "us"};
    v["runtime.scheduler.ticks"] = {ticks, "count"};
    v["runtime.scheduler.enqueues"] = {
        counter(obs::names::kSchedulerEnqueues), "count"};
    v["runtime.scheduler.placements"] = {placements, "count"};
    v["runtime.scheduler.placements_per_tick"] = {placements / ticks, "ratio"};
    v["runtime.tasks_submitted"] = {counter(obs::names::kTasksSubmitted),
                                    "count"};
    v["runtime.tasks_done"] = {counter(obs::names::kTasksDone), "count"};
    v["runtime.tasks_failed"] = {counter(obs::names::kTasksFailed), "count"};
    v["runtime.tasks_retried"] = {counter(obs::names::kTasksRetried), "count"};
    v["core.fold_tasks"] = {ft, "count"};
    v["core.generator_tasks"] = {count(result.generator_tasks), "count"};
    v["core.fold_retries"] = {count(result.fold_retries), "count"};
    v["core.subpipelines"] = {count(result.subpipelines), "count"};
    v["core.completion_messages"] = {
        counter(obs::names::kCompletionMessages), "count"};
    v["core.pipeline_messages"] = {counter(obs::names::kPipelineMessages),
                                   "count"};
    v["mpnn.generate.calls"] = {count(gen_us.size()), "count"};
    v["mpnn.generate.busy_s"] = {gen_busy, "s"};
    v["mpnn.generate.us_per_call.p50"] = {percentile_sorted(gen_us, 50.0),
                                          "us"};
    v["mpnn.generate.us_per_call.ptop"] = {percentile_sorted(gen_us, top),
                                           "us"};
    v["mpnn.generate.ptop_percentile"] = {top, "%"};
    v["mpnn.generate.share_of_run"] = {gen_busy / run_s, "ratio"};
    const auto& fc = result.fold_cache;
    v["fold.cache.hits"] = {count(fc.hits), "count"};
    v["fold.cache.misses"] = {count(fc.misses), "count"};
    v["fold.cache.evictions"] = {count(fc.evictions), "count"};
    v["fold.cache.hit_ratio"] = {fc.hit_rate(), "ratio"};

    const double cuts = count(ck_log.cuts);
    const double save_s = busy["core.checkpoint.to_json"] +
                          busy["common.json.dump"] +
                          busy["common.fs.write_atomic"];
    v["core.checkpoint.cuts"] = {cuts, "count"};
    v["core.checkpoint.to_json_s"] = {busy["core.checkpoint.to_json"], "s"};
    v["common.json.dump_s"] = {busy["common.json.dump"], "s"};
    v["common.fs.write_atomic_s"] = {busy["common.fs.write_atomic"], "s"};
    v["core.checkpoint.save_ms_per_cut"] = {
        cuts > 0 ? save_s / cuts * 1e3 : 0.0, "ms"};
    v["core.checkpoint.mb_written"] = {count(ck_log.bytes) / 1e6, "MB"};
    v["core.checkpoint.doc_mb_max"] = {count(ck_log.max_bytes) / 1e6, "MB"};
    for (const auto& key : section_keys())
      v["core.checkpoint.section_mb." + key] = {0.0, "MB"};
    v["core.checkpoint.section_mb.other"] = {0.0, "MB"};
    if (ck_log.largest.is_object())
      for (const auto& [key, member] : ck_log.largest.as_object()) {
        const bool listed = std::find(section_keys().begin(),
                                      section_keys().end(),
                                      key) != section_keys().end();
        v["core.checkpoint.section_mb." + (listed ? key : "other")].first +=
            count(member.dump().size()) / 1e6;
      }
    v["core.checkpoint.fold_cache_entries"] = {
        count(ck_log.fold_cache_entries), "count"};
    v["core.checkpoint.trace_spans"] = {count(ck_log.trace_spans), "count"};
    v["hpc.profiler.events"] = {count(ck_log.profiler_events), "count"};
    v["common.fs.read_s"] = {busy["resume:common.fs.read"], "s"};
    v["common.json.parse_s"] = {busy["resume:common.json.parse"], "s"};
    v["core.checkpoint.from_json_s"] = {
        busy["resume:core.checkpoint.from_json"], "s"};
    v["core.campaign.resume_s"] = {busy["resume:core.campaign.resume"], "s"};
    v["obs.trace.spans"] = {count(ck_result.trace.size()), "count"};
    samples.push_back(std::move(v));
  }

  const double overhead = median(traced_walls) / median(untraced_walls) - 1.0;
  write_chrome_trace(args.trace_out, rec.spans(), args, w.name);
  print_self_table(w.name, rec.spans());

  // Medians over the traced repetitions (the counts repeat exactly).
  common::Json::Object m;
  for (const auto& [name, first] : samples.front()) {
    std::vector<double> vals;
    for (const auto& smp : samples) vals.push_back(smp.at(name).first);
    m[name] = metric(median(vals), first.second);
    std::printf("# %-44s %14.6g %s\n", name.c_str(), median(vals),
                first.second);
  }
  m["bench.trace_overhead_frac"] = metric(overhead, "ratio");
  std::printf("# %-44s %14.6g ratio (traced %.4f s vs untraced %.4f s)\n",
              "bench.trace_overhead_frac", overhead, median(traced_walls),
              median(untraced_walls));
  return finish(tally, std::move(m));
}

// --- off-check scaling sweep ----------------------------------------------------

int run_sweep(const Args& args) {
  Tally tally;
  std::printf("# scaling sweep: IM-RP Fig 3 set-up, median of 3 runs each\n");
  std::printf("# %8s %10s %12s %14s\n", "targets", "fold_tasks", "wall_s",
              "us_per_fold");
  common::Json::Object m;
  for (const std::size_t n : {70u, 280u, 1120u, 2240u}) {
    const Spec spec{Arm::kImrpFig3, n, false, 0};
    const auto p = prepare(spec, args.seed);
    std::vector<double> walls;
    std::size_t fold_tasks = 0;
    for (int i = 0; i < 3; ++i) {
      ++tally.attempted;
      const auto run = timed_run(p.config, p);
      walls.push_back(run.seconds);
      fold_tasks = run.result.fold_tasks;
      check_result(run.result, p.targets, "sweep " + std::to_string(n), tally);
    }
    const double wall = median(walls);
    const double us = wall / static_cast<double>(fold_tasks) * 1e6;
    std::printf("# %8zu %10zu %12.4f %14.1f\n", n, fold_tasks, wall, us);
    m["wall_s." + std::to_string(n)] = metric(wall, "s");
    m["us_per_fold_task." + std::to_string(n)] = metric(us, "us");
  }
  return finish(tally, std::move(m));
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--work-dir DIR] [--trace-out FILE]\n"
               "       %s --sweep [--seed N]\nworkloads:",
               argv0, argv0);
  for (const auto& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--workload") a.workload = value();
    else if (arg == "--seed") a.seed = std::stoull(value());
    else if (arg == "--seconds") a.seconds = std::stod(value());
    else if (arg == "--trace") a.trace = value() != "0";
    else if (arg == "--work-dir") a.work_dir = value();
    else if (arg == "--trace-out") a.trace_out = value();
    else if (arg == "--sweep") a.sweep = true;
    else usage(argv[0]);
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  print_provenance(args.seed);
  try {
    if (args.sweep) return run_sweep(args);
    for (const auto& w : workloads())
      if (args.workload == w.name)
        return args.trace ? run_traced(w, args) : run_end_to_end(w, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench: %s\n", e.what());
    return 1;
  }
  usage(argv[0]);
}
