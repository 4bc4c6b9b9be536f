#include "core/checkpoint.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <variant>

#include "common/fs.hpp"
#include "obs/export.hpp"

namespace impress::core {

namespace {

constexpr int kSchemaVersion = 5;
constexpr std::string_view kKind = "impress.checkpoint";

// --- uint64 <-> hex string (JSON numbers are doubles; exact bits matter
// for rng states, span ids and sequence numbers) ---

void write_hex(common::JsonWriter& w, std::uint64_t v) {
  char buf[16];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v, 16);
  w.value(std::string_view(buf, static_cast<std::size_t>(end - buf)));
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
//
// Writers emit each object's keys in sorted order (JsonWriter enforces it),
// so the text equals the dump of the equivalent Json tree.

void write_rng(common::JsonWriter& w, const common::Rng::State& s) {
  w.begin_object();
  w.key("cached_normal").value(s.cached_normal);
  w.key("has_cached_normal").value(s.has_cached_normal);
  write_hex(w.key("inc"), s.inc);
  write_hex(w.key("state"), s.state);
  w.end_object();
}

common::Rng::State rng_from_json(const common::Json& j) {
  common::Rng::State s;
  s.state = parse_hex_u64(j.at("state"));
  s.inc = parse_hex_u64(j.at("inc"));
  s.cached_normal = j.at("cached_normal").as_number();
  s.has_cached_normal = j.at("has_cached_normal").as_bool();
  return s;
}

void write_structure(common::JsonWriter& w, const protein::Structure& s) {
  w.begin_object();
  w.key("chains").begin_array();
  for (const auto& chain : s.chains()) {
    w.begin_object();
    // A trace ideal_trace built is named by its origin and rebuilt on load;
    // any other trace (PDB input) is written out.
    if (const auto origin = chain.ca.ideal_origin();
        origin && chain.ca.size() == chain.sequence.size()) {
      w.key("ca_origin").begin_array();
      w.value(origin->x).value(origin->y).value(origin->z).end_array();
    } else {
      w.key("ca").begin_array();
      for (const auto& v : chain.ca)
        w.begin_array().value(v.x).value(v.y).value(v.z).end_array();
      w.end_array();
    }
    w.key("id").value(std::string_view(&chain.id, 1));
    w.key("sequence").value(chain.sequence.to_string());
    w.end_object();
  }
  w.end_array();
  w.key("name").value(s.name());
  w.key("plddt").begin_array();
  for (const double p : s.plddt()) w.value(p);
  w.end_array();
  w.end_object();
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
    if (c.contains("ca") == c.contains("ca_origin"))
      throw std::invalid_argument(
          "checkpoint: a chain needs exactly one of ca and ca_origin");
    if (c.contains("ca_origin")) {
      const auto& o = c.at("ca_origin");
      if (!o.is_array() || o.size() != 3 ||
          !std::ranges::all_of(o.as_array(), &common::Json::is_number))
        throw std::invalid_argument(
            "checkpoint: ca_origin must be three numbers");
      chain.ca = protein::ideal_trace(
          chain.sequence.size(),
          protein::Vec3{o.at(0).as_number(), o.at(1).as_number(),
                        o.at(2).as_number()});
    } else {
      std::vector<protein::Vec3> ca;
      for (const auto& v : c.at("ca").as_array())
        ca.push_back(protein::Vec3{v.at(0).as_number(), v.at(1).as_number(),
                                   v.at(2).as_number()});
      chain.ca = protein::CaTrace(std::move(ca));
    }
    chains.push_back(std::move(chain));
  }
  protein::Structure s(j.at("name").as_string(), std::move(chains));
  std::vector<double> plddt;
  for (const auto& p : j.at("plddt").as_array())
    plddt.push_back(p.as_number());
  s.set_plddt(std::move(plddt));
  return s;
}

void write_complex(common::JsonWriter& w, const protein::Complex& c) {
  write_structure(w, c.structure);
}

protein::Complex complex_from_json(const common::Json& j) {
  return protein::Complex{structure_from_json(j)};
}

void write_fold_metrics(common::JsonWriter& w, const fold::FoldMetrics& m) {
  w.begin_object();
  w.key("ipae").value(m.ipae);
  w.key("plddt").value(m.plddt);
  w.key("ptm").value(m.ptm);
  w.end_object();
}

fold::FoldMetrics fold_metrics_from_json(const common::Json& j) {
  return fold::FoldMetrics{.plddt = j.at("plddt").as_number(),
                           .ptm = j.at("ptm").as_number(),
                           .ipae = j.at("ipae").as_number()};
}

void write_iteration(common::JsonWriter& w, const IterationRecord& rec) {
  w.begin_object();
  w.key("accepted").value(rec.accepted);
  w.key("cycle").value(rec.cycle);
  write_fold_metrics(w.key("metrics"), rec.metrics);
  w.key("retries").value(rec.retries);
  w.key("sequence").value(rec.sequence);
  w.key("true_fitness").value(rec.true_fitness);
  w.end_object();
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

void write_pipeline(common::JsonWriter& w, const Pipeline::Snapshot& p) {
  w.begin_object();
  w.key("candidates").begin_array();
  for (const auto& c : p.candidates)
    w.begin_object()
        .key("log_likelihood").value(c.log_likelihood)
        .key("sequence").value(c.sequence.to_string())
        .end_object();
  w.end_array();
  write_complex(w.key("current"), p.current);
  w.key("cycle").value(p.cycle);
  w.key("history").begin_array();
  for (const auto& rec : p.history) write_iteration(w, rec);
  w.end_array();
  w.key("id").value(p.id);
  w.key("is_sub").value(p.is_sub);
  if (p.last_metrics)
    write_fold_metrics(w.key("last_metrics"), *p.last_metrics);
  w.key("next_candidate").value(p.next_candidate);
  w.key("pending_candidate").value(p.pending_candidate);
  w.key("pending_reuse_features").value(p.pending_reuse_features);
  w.key("retries_this_cycle").value(p.retries_this_cycle);
  write_rng(w.key("rng"), p.rng);
  w.key("state").value(p.state);
  w.key("target").value(p.target_name);
  write_hex(w.key("task_counter"), p.task_counter);
  w.key("total_retries").value(p.total_retries);
  w.end_object();
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

void write_coordinator(common::JsonWriter& w, const CoordinatorCheckpoint& c) {
  w.begin_object();
  write_hex(w.key("failed_tasks"), c.failed_tasks);
  write_hex(w.key("fold_retries"), c.fold_retries);
  write_hex(w.key("fold_tasks"), c.fold_tasks);
  write_hex(w.key("generator_tasks"), c.generator_tasks);
  w.key("parked").begin_array();
  for (const auto& pa : c.parked) {
    w.begin_object();
    if (pa.fold_input) write_complex(w.key("fold_input"), *pa.fold_input);
    w.key("kind").value(pa.kind);
    w.key("pipeline").value(pa.pipeline_id);
    w.key("refined").value(pa.refined);
    w.key("reuse_features").value(pa.reuse_features);
    w.end_object();
  }
  w.end_array();
  w.key("pipeline_spans").begin_object();
  for (const auto& [id, span] : c.pipeline_spans) write_hex(w.key(id), span);
  w.end_object();
  w.key("pipelines").begin_array();
  for (const auto& p : c.pipelines) write_pipeline(w, p);
  w.end_array();
  write_hex(w.key("refine_tasks"), c.refine_tasks);
  write_hex(w.key("root_pipelines"), c.root_pipelines);
  w.key("subpipeline_count").begin_object();
  for (const auto& [name, count] : c.subpipeline_count)
    w.key(name).value(count);
  w.end_object();
  write_hex(w.key("subpipelines"), c.subpipelines);
  w.end_object();
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

void write_interval(common::JsonWriter& w, const hpc::UsageInterval& iv) {
  w.begin_object();
  w.key("cores").value(iv.cores);
  w.key("cpu_intensity").value(iv.cpu_intensity);
  w.key("end").value(iv.end);
  w.key("gpu_intensity").value(iv.gpu_intensity);
  w.key("gpus").value(iv.gpus);
  w.key("start").value(iv.start);
  w.key("task_uid").value(iv.task_uid);
  w.end_object();
}

void write_mark(common::JsonWriter& w, const obs::Mark& e) {
  w.begin_object()
      .key("entity").value(e.entity)
      .key("event").value(e.event)
      .key("info").value(e.info)
      .key("time").value(e.time)
      .end_object();
}

// Whether `write` formats `record` to exactly `bytes`.
template <class T>
bool formats_as(std::string_view bytes, const T& record,
                void (*write)(common::JsonWriter&, const T&)) {
  common::JsonWriter w;
  write(w, record);
  return w.take() == bytes;
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

std::string_view CheckpointWriter::Records::slice(std::string_view text,
                                                  std::size_t first,
                                                  std::size_t last) const {
  const std::size_t from = first == 0 ? begin : ends[first - 1] + 1;
  return text.substr(from, ends[last - 1] - from);
}

std::size_t CheckpointWriter::Records::copy(common::JsonWriter& w,
                                            std::string_view text,
                                            const Records& from,
                                            std::size_t first,
                                            std::size_t last) {
  const std::string_view bytes = from.slice(text, first, last);
  w.splice(bytes);
  // The elements moved from where `bytes` sat in `text` to the end of w.
  const auto old_at = static_cast<std::size_t>(bytes.data() - text.data());
  const std::size_t new_at = w.size() - bytes.size();
  for (std::size_t i = first; i < last; ++i)
    ends.push_back(from.ends[i] - old_at + new_at);
  return bytes.size();
}

bool CheckpointWriter::extends(const CampaignCheckpoint& checkpoint) const {
  if (text_.empty()) return false;
  const auto& marks = checkpoint.profiler_events;
  const std::size_t n = marks_.ends.size();
  if (marks.size() < n ||
      (n > 0 && !formats_as(marks_.slice(text_, n - 1, n), marks[n - 1],
                            &write_mark)))
    return false;
  if (checkpoint.pilots.size() != pilots_.size()) return false;
  for (std::size_t i = 0; i < pilots_.size(); ++i) {
    const auto& pilot = checkpoint.pilots[i];
    const Records& old = pilots_[i].intervals;
    const std::size_t k = old.ends.size();
    if (pilot.uid != pilots_[i].uid || pilot.intervals.size() < k ||
        (k > 0 && !formats_as(old.slice(text_, k - 1, k),
                              pilot.intervals[k - 1], &write_interval)))
      return false;
  }
  return true;
}

std::string_view CheckpointWriter::format(
    const CampaignCheckpoint& checkpoint) {
  const bool reuse = extends(checkpoint);
  copied_ = 0;
  Records marks;
  std::vector<PilotRecords> pilots;
  Records spans;
  std::vector<SpanKey> span_keys;

  // An append-only log: the elements the previous cut wrote are copied,
  // the rest formatted.
  common::JsonWriter w;
  const auto write_log = [&](const auto& records, const Records* old,
                             Records& out, auto write) {
    out.begin = w.size();
    out.ends.reserve(records.size());
    std::size_t i = 0;
    if (old != nullptr && !old->ends.empty()) {
      copied_ += out.copy(w, text_, *old, 0, old->ends.size());
      i = old->ends.size();
    }
    for (; i < records.size(); ++i) {
      write(w, records[i]);
      out.ends.push_back(w.size());
    }
  };

  w.begin_object();
  w.key("campaign").value(checkpoint.campaign_name);
  write_hex(w.key("campaign_span"), checkpoint.campaign_span);
  write_coordinator(w.key("coordinator"), checkpoint.coordinator);
  if (!checkpoint.generator_state.is_null())
    w.key("generator_state").value(checkpoint.generator_state);
  w.key("kind").value(kKind);
  if (!checkpoint.metrics.empty())
    obs::write_metrics(w.key("metrics"), checkpoint.metrics);
  w.key("now").value(checkpoint.now);
  write_hex(w.key("ordinal"), checkpoint.ordinal);
  w.key("pilots").begin_array();
  for (std::size_t i = 0; i < checkpoint.pilots.size(); ++i) {
    const rp::PilotRestore& p = checkpoint.pilots[i];
    PilotRecords& out = pilots.emplace_back();
    out.uid = p.uid;
    w.begin_object();
    write_rng(w.key("executor_rng"), p.executor_rng);
    w.key("failed").value(p.failed);
    w.key("intervals").begin_array();
    write_log(p.intervals, reuse ? &pilots_[i].intervals : nullptr,
              out.intervals, &write_interval);
    w.end_array();
    w.key("uid").value(p.uid);
    w.end_object();
  }
  w.end_array();
  w.key("profiler_events").begin_array();
  write_log(checkpoint.profiler_events, reuse ? &marks_ : nullptr, marks,
            &write_mark);
  w.end_array();
  w.key("schema_version").value(kSchemaVersion);
  write_hex(w.key("seed"), checkpoint.seed);
  w.key("targets").value(checkpoint.targets);
  const auto& tasks = checkpoint.task_counters;
  w.key("task_counters").begin_object();
  write_hex(w.key("cancelled"), tasks.cancelled);
  write_hex(w.key("done"), tasks.done);
  write_hex(w.key("failed"), tasks.failed);
  write_hex(w.key("requeued"), tasks.requeued);
  write_hex(w.key("retried"), tasks.retried);
  write_hex(w.key("submitted"), tasks.submitted);
  write_hex(w.key("timed_out"), tasks.timed_out);
  w.end_object();
  if (!checkpoint.trace.empty()) {
    // A span is copied when its key matches the previous cut's span at the
    // same index; consecutive copies are spliced as one run.
    w.key("trace").begin_array();
    spans.begin = w.size();
    spans.ends.reserve(checkpoint.trace.size());
    span_keys.reserve(checkpoint.trace.size());
    std::size_t run = 0;  // the copy run is [run, i)
    for (std::size_t i = 0; i < checkpoint.trace.size(); ++i) {
      const obs::SpanRecord& s = checkpoint.trace[i];
      const SpanKey key{s.id, s.close_seq, s.attrs.size()};
      span_keys.push_back(key);
      if (reuse && i < span_keys_.size() && span_keys_[i] == key) continue;
      if (run < i) copied_ += spans.copy(w, text_, spans_, run, i);
      run = i + 1;
      obs::write_span(w, s);
      spans.ends.push_back(w.size());
    }
    if (run < checkpoint.trace.size())
      copied_ += spans.copy(w, text_, spans_, run, checkpoint.trace.size());
    w.end_array();
  }
  write_hex(w.key("trace_next_seq"), checkpoint.trace_next_seq);
  w.key("uid_counters").begin_object();
  for (const auto& [name, count] : checkpoint.uid_counters)
    write_hex(w.key(name), count);
  w.end_object();
  w.end_object();

  text_ = w.take();
  text_ += '\n';
  marks_ = std::move(marks);
  pilots_ = std::move(pilots);
  spans_ = std::move(spans);
  span_keys_ = std::move(span_keys);
  return std::string_view(text_).substr(0, text_.size() - 1);
}

void CheckpointWriter::save(const CampaignCheckpoint& checkpoint,
                            const std::string& path) {
  (void)format(checkpoint);
  common::write_file_atomic(path, text_);
}

std::string checkpoint_text(const CampaignCheckpoint& checkpoint) {
  return std::string(CheckpointWriter().format(checkpoint));
}

common::Json to_json(const CampaignCheckpoint& checkpoint) {
  return common::Json::parse(checkpoint_text(checkpoint));
}

namespace {

CampaignCheckpoint checkpoint_from_tree(const common::Json& doc) {
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
  if (doc.contains("generator_state"))
    c.generator_state = doc.at("generator_state");
  return c;
}

}  // namespace

CampaignCheckpoint campaign_checkpoint_from_json(const common::Json& doc) {
  // Json::at throws std::out_of_range on a missing member and the typed
  // accessors std::bad_variant_access on a mistyped one; to a caller both
  // mean a corrupt document.
  try {
    return checkpoint_from_tree(doc);
  } catch (const std::out_of_range&) {
    throw std::invalid_argument("checkpoint: missing member");
  } catch (const std::bad_variant_access&) {
    throw std::invalid_argument("checkpoint: member of the wrong type");
  }
}

void save_checkpoint(const CampaignCheckpoint& checkpoint,
                     const std::string& path) {
  CheckpointWriter().save(checkpoint, path);
}

CampaignCheckpoint load_checkpoint(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("checkpoint: cannot open " + path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return campaign_checkpoint_from_json(common::Json::parse(ss.str()));
}

}  // namespace impress::core
