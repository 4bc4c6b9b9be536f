#include "core/checkpoint.hpp"

#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/fs.hpp"
#include "obs/export.hpp"

namespace impress::core {

namespace {

constexpr int kSchemaVersion = 3;
constexpr std::string_view kKind = "impress.checkpoint";

// --- uint64 <-> hex string (JSON numbers are doubles; exact bits matter
// for rng states, cache keys, span ids and sequence numbers) ---

common::Json hex_u64(std::uint64_t v) {
  char buf[17];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v, 16);
  return common::Json(std::string(buf, end));
}

std::uint64_t parse_hex_u64(const common::Json& j) {
  const std::string& s = j.as_string();
  std::uint64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(s.data(), s.data() + s.size(), v, 16);
  if (ec != std::errc{} || ptr != s.data() + s.size())
    throw std::invalid_argument("checkpoint: malformed hex uint64 '" + s +
                                "'");
  return v;
}

// --- leaf types ---

common::Json rng_to_json(const common::Rng::State& s) {
  common::Json::Object o;
  o["state"] = hex_u64(s.state);
  o["inc"] = hex_u64(s.inc);
  o["cached_normal"] = s.cached_normal;
  o["has_cached_normal"] = s.has_cached_normal;
  return common::Json(std::move(o));
}

common::Rng::State rng_from_json(const common::Json& j) {
  common::Rng::State s;
  s.state = parse_hex_u64(j.at("state"));
  s.inc = parse_hex_u64(j.at("inc"));
  s.cached_normal = j.at("cached_normal").as_number();
  s.has_cached_normal = j.at("has_cached_normal").as_bool();
  return s;
}

common::Json structure_to_json(const protein::Structure& s) {
  common::Json::Object o;
  o["name"] = s.name();
  common::Json::Array chains;
  chains.reserve(s.chains().size());
  for (const auto& chain : s.chains()) {
    common::Json::Object c;
    c["id"] = std::string(1, chain.id);
    c["sequence"] = chain.sequence.to_string();
    common::Json::Array ca;
    ca.reserve(chain.ca.size());
    for (const auto& v : chain.ca)
      ca.emplace_back(common::Json::Array{v.x, v.y, v.z});
    c["ca"] = common::Json(std::move(ca));
    chains.emplace_back(std::move(c));
  }
  o["chains"] = common::Json(std::move(chains));
  common::Json::Array plddt;
  plddt.reserve(s.plddt().size());
  for (double p : s.plddt()) plddt.emplace_back(p);
  o["plddt"] = common::Json(std::move(plddt));
  return common::Json(std::move(o));
}

protein::Structure structure_from_json(const common::Json& j) {
  std::vector<protein::Chain> chains;
  for (const auto& c : j.at("chains").as_array()) {
    protein::Chain chain;
    const std::string& id = c.at("id").as_string();
    if (id.size() != 1)
      throw std::invalid_argument("checkpoint: chain id must be one char");
    chain.id = id[0];
    chain.sequence =
        protein::Sequence::from_string(c.at("sequence").as_string());
    for (const auto& v : c.at("ca").as_array())
      chain.ca.push_back(protein::Vec3{v.at(0).as_number(),
                                       v.at(1).as_number(),
                                       v.at(2).as_number()});
    chains.push_back(std::move(chain));
  }
  protein::Structure s(j.at("name").as_string(), std::move(chains));
  std::vector<double> plddt;
  for (const auto& p : j.at("plddt").as_array())
    plddt.push_back(p.as_number());
  s.set_plddt(std::move(plddt));
  return s;
}

common::Json complex_to_json(const protein::Complex& c) {
  return structure_to_json(c.structure);
}

protein::Complex complex_from_json(const common::Json& j) {
  return protein::Complex{structure_from_json(j)};
}

common::Json fold_metrics_to_json(const fold::FoldMetrics& m) {
  common::Json::Object o;
  o["plddt"] = m.plddt;
  o["ptm"] = m.ptm;
  o["ipae"] = m.ipae;
  return common::Json(std::move(o));
}

fold::FoldMetrics fold_metrics_from_json(const common::Json& j) {
  return fold::FoldMetrics{.plddt = j.at("plddt").as_number(),
                           .ptm = j.at("ptm").as_number(),
                           .ipae = j.at("ipae").as_number()};
}

common::Json iteration_to_json(const IterationRecord& rec) {
  common::Json::Object r;
  r["cycle"] = rec.cycle;
  r["metrics"] = fold_metrics_to_json(rec.metrics);
  r["true_fitness"] = rec.true_fitness;
  r["accepted"] = rec.accepted;
  r["retries"] = rec.retries;
  r["sequence"] = rec.sequence;
  return common::Json(std::move(r));
}

IterationRecord iteration_from_json(const common::Json& j) {
  IterationRecord rec;
  rec.cycle = static_cast<int>(j.at("cycle").as_number());
  rec.metrics = fold_metrics_from_json(j.at("metrics"));
  rec.true_fitness = j.at("true_fitness").as_number();
  rec.accepted = j.at("accepted").as_bool();
  rec.retries = static_cast<int>(j.at("retries").as_number());
  rec.sequence = j.at("sequence").as_string();
  return rec;
}

common::Json pipeline_to_json(const Pipeline::Snapshot& p) {
  common::Json::Object o;
  o["id"] = p.id;
  o["target"] = p.target_name;
  o["current"] = complex_to_json(p.current);
  o["rng"] = rng_to_json(p.rng);
  o["task_counter"] = hex_u64(p.task_counter);
  o["state"] = p.state;
  o["cycle"] = p.cycle;
  o["is_sub"] = p.is_sub;
  common::Json::Array candidates;
  candidates.reserve(p.candidates.size());
  for (const auto& c : p.candidates) {
    common::Json::Object cand;
    cand["sequence"] = c.sequence.to_string();
    cand["log_likelihood"] = c.log_likelihood;
    candidates.emplace_back(std::move(cand));
  }
  o["candidates"] = common::Json(std::move(candidates));
  o["next_candidate"] = p.next_candidate;
  o["pending_candidate"] = p.pending_candidate;
  o["pending_reuse_features"] = p.pending_reuse_features;
  o["retries_this_cycle"] = p.retries_this_cycle;
  o["total_retries"] = p.total_retries;
  if (p.last_metrics) o["last_metrics"] = fold_metrics_to_json(*p.last_metrics);
  common::Json::Array history;
  history.reserve(p.history.size());
  for (const auto& rec : p.history)
    history.emplace_back(iteration_to_json(rec));
  o["history"] = common::Json(std::move(history));
  return common::Json(std::move(o));
}

Pipeline::Snapshot pipeline_from_json(const common::Json& j) {
  Pipeline::Snapshot p;
  p.id = j.at("id").as_string();
  p.target_name = j.at("target").as_string();
  p.current = complex_from_json(j.at("current"));
  p.rng = rng_from_json(j.at("rng"));
  p.task_counter = parse_hex_u64(j.at("task_counter"));
  p.state = static_cast<int>(j.at("state").as_number());
  p.cycle = static_cast<int>(j.at("cycle").as_number());
  p.is_sub = j.at("is_sub").as_bool();
  for (const auto& c : j.at("candidates").as_array())
    p.candidates.push_back(mpnn::ScoredSequence{
        protein::Sequence::from_string(c.at("sequence").as_string()),
        c.at("log_likelihood").as_number()});
  p.next_candidate =
      static_cast<std::uint64_t>(j.at("next_candidate").as_number());
  p.pending_candidate =
      static_cast<std::uint64_t>(j.at("pending_candidate").as_number());
  p.pending_reuse_features = j.at("pending_reuse_features").as_bool();
  p.retries_this_cycle =
      static_cast<int>(j.at("retries_this_cycle").as_number());
  p.total_retries = static_cast<int>(j.at("total_retries").as_number());
  if (j.contains("last_metrics"))
    p.last_metrics = fold_metrics_from_json(j.at("last_metrics"));
  for (const auto& rec : j.at("history").as_array())
    p.history.push_back(iteration_from_json(rec));
  return p;
}

common::Json coordinator_to_json(const CoordinatorCheckpoint& c) {
  common::Json::Object o;
  common::Json::Array pipelines;
  pipelines.reserve(c.pipelines.size());
  for (const auto& p : c.pipelines) pipelines.emplace_back(pipeline_to_json(p));
  o["pipelines"] = common::Json(std::move(pipelines));
  common::Json::Array parked;
  parked.reserve(c.parked.size());
  for (const auto& pa : c.parked) {
    common::Json::Object a;
    a["pipeline"] = pa.pipeline_id;
    a["kind"] = pa.kind;
    if (pa.fold_input) a["fold_input"] = complex_to_json(*pa.fold_input);
    a["reuse_features"] = pa.reuse_features;
    a["refined"] = pa.refined;
    parked.emplace_back(std::move(a));
  }
  o["parked"] = common::Json(std::move(parked));
  common::Json::Object subs;
  for (const auto& [name, count] : c.subpipeline_count) subs[name] = count;
  o["subpipeline_count"] = common::Json(std::move(subs));
  common::Json::Object spans;
  for (const auto& [id, span] : c.pipeline_spans) spans[id] = hex_u64(span);
  o["pipeline_spans"] = common::Json(std::move(spans));
  o["root_pipelines"] = hex_u64(c.root_pipelines);
  o["subpipelines"] = hex_u64(c.subpipelines);
  o["generator_tasks"] = hex_u64(c.generator_tasks);
  o["refine_tasks"] = hex_u64(c.refine_tasks);
  o["fold_tasks"] = hex_u64(c.fold_tasks);
  o["fold_retries"] = hex_u64(c.fold_retries);
  o["failed_tasks"] = hex_u64(c.failed_tasks);
  return common::Json(std::move(o));
}

CoordinatorCheckpoint coordinator_from_json(const common::Json& j) {
  CoordinatorCheckpoint c;
  for (const auto& p : j.at("pipelines").as_array())
    c.pipelines.push_back(pipeline_from_json(p));
  for (const auto& a : j.at("parked").as_array()) {
    CoordinatorCheckpoint::ParkedAction pa;
    pa.pipeline_id = a.at("pipeline").as_string();
    pa.kind = static_cast<int>(a.at("kind").as_number());
    if (a.contains("fold_input"))
      pa.fold_input = complex_from_json(a.at("fold_input"));
    pa.reuse_features = a.at("reuse_features").as_bool();
    pa.refined = a.at("refined").as_bool();
    c.parked.push_back(std::move(pa));
  }
  for (const auto& [name, count] : j.at("subpipeline_count").as_object())
    c.subpipeline_count[name] = static_cast<int>(count.as_number());
  for (const auto& [id, span] : j.at("pipeline_spans").as_object())
    c.pipeline_spans[id] = parse_hex_u64(span);
  c.root_pipelines = parse_hex_u64(j.at("root_pipelines"));
  c.subpipelines = parse_hex_u64(j.at("subpipelines"));
  c.generator_tasks = parse_hex_u64(j.at("generator_tasks"));
  c.refine_tasks = parse_hex_u64(j.at("refine_tasks"));
  c.fold_tasks = parse_hex_u64(j.at("fold_tasks"));
  c.fold_retries = parse_hex_u64(j.at("fold_retries"));
  c.failed_tasks = parse_hex_u64(j.at("failed_tasks"));
  return c;
}

common::Json cache_to_json(const fold::FoldCache::Snapshot& s) {
  common::Json::Object o;
  common::Json::Array shards;
  shards.reserve(s.shards.size());
  for (const auto& shard : s.shards) {
    common::Json::Array keys;
    keys.reserve(shard.size());
    for (const std::uint64_t key : shard) keys.push_back(hex_u64(key));
    shards.emplace_back(std::move(keys));
  }
  o["shards"] = common::Json(std::move(shards));
  o["hits"] = hex_u64(s.hits);
  o["misses"] = hex_u64(s.misses);
  o["evictions"] = hex_u64(s.evictions);
  o["duplicate_discards"] = hex_u64(s.duplicate_discards);
  return common::Json(std::move(o));
}

fold::FoldCache::Snapshot cache_from_json(const common::Json& j) {
  fold::FoldCache::Snapshot s;
  for (const auto& shard : j.at("shards").as_array()) {
    std::vector<std::uint64_t> keys;
    keys.reserve(shard.as_array().size());
    for (const auto& key : shard.as_array()) keys.push_back(parse_hex_u64(key));
    s.shards.push_back(std::move(keys));
  }
  s.hits = parse_hex_u64(j.at("hits"));
  s.misses = parse_hex_u64(j.at("misses"));
  s.evictions = parse_hex_u64(j.at("evictions"));
  s.duplicate_discards = parse_hex_u64(j.at("duplicate_discards"));
  return s;
}

common::Json pilot_to_json(const rp::PilotRestore& p) {
  common::Json::Object o;
  o["uid"] = p.uid;
  o["failed"] = p.failed;
  o["executor_rng"] = rng_to_json(p.executor_rng);
  common::Json::Array intervals;
  intervals.reserve(p.intervals.size());
  for (const auto& iv : p.intervals) {
    common::Json::Object i;
    i["start"] = iv.start;
    i["end"] = iv.end;
    i["cores"] = static_cast<double>(iv.cores);
    i["gpus"] = static_cast<double>(iv.gpus);
    i["cpu_intensity"] = iv.cpu_intensity;
    i["gpu_intensity"] = iv.gpu_intensity;
    i["task_uid"] = iv.task_uid;
    intervals.emplace_back(std::move(i));
  }
  o["intervals"] = common::Json(std::move(intervals));
  return common::Json(std::move(o));
}

rp::PilotRestore pilot_from_json(const common::Json& j) {
  rp::PilotRestore p;
  p.uid = j.at("uid").as_string();
  p.failed = j.at("failed").as_bool();
  p.executor_rng = rng_from_json(j.at("executor_rng"));
  for (const auto& i : j.at("intervals").as_array())
    p.intervals.push_back(hpc::UsageInterval{
        .start = i.at("start").as_number(),
        .end = i.at("end").as_number(),
        .cores = static_cast<std::uint32_t>(i.at("cores").as_number()),
        .gpus = static_cast<std::uint32_t>(i.at("gpus").as_number()),
        .cpu_intensity = i.at("cpu_intensity").as_number(),
        .gpu_intensity = i.at("gpu_intensity").as_number(),
        .task_uid = i.at("task_uid").as_string()});
  return p;
}

}  // namespace

common::Json to_json(const CampaignCheckpoint& checkpoint) {
  common::Json::Object doc;
  doc["schema_version"] = kSchemaVersion;
  doc["kind"] = std::string(kKind);
  doc["campaign"] = checkpoint.campaign_name;
  doc["seed"] = hex_u64(checkpoint.seed);
  doc["targets"] = checkpoint.targets;
  doc["ordinal"] = hex_u64(checkpoint.ordinal);

  doc["now"] = checkpoint.now;
  common::Json::Array events;
  events.reserve(checkpoint.profiler_events.size());
  for (const auto& e : checkpoint.profiler_events) {
    common::Json::Object ev;
    ev["time"] = e.time;
    ev["entity"] = e.entity;
    ev["event"] = e.event;
    ev["info"] = e.info;
    events.emplace_back(std::move(ev));
  }
  doc["profiler_events"] = common::Json(std::move(events));
  if (!checkpoint.trace.empty())
    doc["trace"] = obs::spans_to_json(checkpoint.trace);
  doc["trace_next_seq"] = hex_u64(checkpoint.trace_next_seq);
  doc["campaign_span"] = hex_u64(checkpoint.campaign_span);
  if (!checkpoint.metrics.empty())
    doc["metrics"] = obs::metrics_to_json(checkpoint.metrics);
  common::Json::Object uids;
  for (const auto& [name, count] : checkpoint.uid_counters)
    uids[name] = hex_u64(count);
  doc["uid_counters"] = common::Json(std::move(uids));
  common::Json::Object tasks;
  tasks["submitted"] = hex_u64(checkpoint.task_counters.submitted);
  tasks["done"] = hex_u64(checkpoint.task_counters.done);
  tasks["failed"] = hex_u64(checkpoint.task_counters.failed);
  tasks["cancelled"] = hex_u64(checkpoint.task_counters.cancelled);
  tasks["retried"] = hex_u64(checkpoint.task_counters.retried);
  tasks["timed_out"] = hex_u64(checkpoint.task_counters.timed_out);
  tasks["requeued"] = hex_u64(checkpoint.task_counters.requeued);
  doc["task_counters"] = common::Json(std::move(tasks));
  common::Json::Array pilots;
  pilots.reserve(checkpoint.pilots.size());
  for (const auto& p : checkpoint.pilots) pilots.emplace_back(pilot_to_json(p));
  doc["pilots"] = common::Json(std::move(pilots));

  doc["coordinator"] = coordinator_to_json(checkpoint.coordinator);
  if (checkpoint.fold_cache)
    doc["fold_cache"] = cache_to_json(*checkpoint.fold_cache);
  if (!checkpoint.generator_state.is_null())
    doc["generator_state"] = checkpoint.generator_state;
  return common::Json(std::move(doc));
}

CampaignCheckpoint campaign_checkpoint_from_json(const common::Json& doc) {
  if (!doc.is_object() || !doc.contains("kind") ||
      doc.at("kind").as_string() != kKind)
    throw std::invalid_argument("checkpoint: not a campaign checkpoint");
  if (static_cast<int>(doc.at("schema_version").as_number()) != kSchemaVersion)
    throw std::invalid_argument("checkpoint: unsupported schema version");

  CampaignCheckpoint c;
  c.campaign_name = doc.at("campaign").as_string();
  c.seed = parse_hex_u64(doc.at("seed"));
  c.targets = static_cast<std::size_t>(doc.at("targets").as_number());
  c.ordinal = parse_hex_u64(doc.at("ordinal"));

  c.now = doc.at("now").as_number();
  for (const auto& e : doc.at("profiler_events").as_array())
    c.profiler_events.push_back(obs::Mark{.time = e.at("time").as_number(),
                                          .entity = e.at("entity").as_string(),
                                          .event = e.at("event").as_string(),
                                          .info = e.at("info").as_string()});
  if (doc.contains("trace")) c.trace = obs::spans_from_json(doc.at("trace"));
  c.trace_next_seq = parse_hex_u64(doc.at("trace_next_seq"));
  c.campaign_span = parse_hex_u64(doc.at("campaign_span"));
  if (doc.contains("metrics"))
    c.metrics = obs::metrics_from_json(doc.at("metrics"));
  for (const auto& [name, count] : doc.at("uid_counters").as_object())
    c.uid_counters[name] = parse_hex_u64(count);
  const auto& tasks = doc.at("task_counters");
  c.task_counters.submitted = parse_hex_u64(tasks.at("submitted"));
  c.task_counters.done = parse_hex_u64(tasks.at("done"));
  c.task_counters.failed = parse_hex_u64(tasks.at("failed"));
  c.task_counters.cancelled = parse_hex_u64(tasks.at("cancelled"));
  c.task_counters.retried = parse_hex_u64(tasks.at("retried"));
  c.task_counters.timed_out = parse_hex_u64(tasks.at("timed_out"));
  c.task_counters.requeued = parse_hex_u64(tasks.at("requeued"));
  for (const auto& p : doc.at("pilots").as_array())
    c.pilots.push_back(pilot_from_json(p));

  c.coordinator = coordinator_from_json(doc.at("coordinator"));
  if (doc.contains("fold_cache"))
    c.fold_cache = cache_from_json(doc.at("fold_cache"));
  if (doc.contains("generator_state"))
    c.generator_state = doc.at("generator_state");
  return c;
}

void save_checkpoint(const CampaignCheckpoint& checkpoint,
                     const std::string& path) {
  common::write_file_atomic(path, to_json(checkpoint).dump() + "\n");
}

CampaignCheckpoint load_checkpoint(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("checkpoint: cannot open " + path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return campaign_checkpoint_from_json(common::Json::parse(ss.str()));
}

}  // namespace impress::core
