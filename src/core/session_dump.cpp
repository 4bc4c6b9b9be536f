#include "core/session_dump.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <variant>

#include "core/export.hpp"
#include "obs/export.hpp"

namespace impress::core {

namespace {

constexpr int kSchemaVersion = 1;

common::Json metrics_to_json(const fold::FoldMetrics& m) {
  common::Json::Object o;
  o["plddt"] = m.plddt;
  o["ptm"] = m.ptm;
  o["ipae"] = m.ipae;
  return common::Json(std::move(o));
}

fold::FoldMetrics metrics_from_json(const common::Json& j) {
  return fold::FoldMetrics{.plddt = j.at("plddt").as_number(),
                           .ptm = j.at("ptm").as_number(),
                           .ipae = j.at("ipae").as_number()};
}

common::Json series_to_json(const std::vector<double>& xs) {
  common::Json::Array a;
  a.reserve(xs.size());
  for (double x : xs) a.emplace_back(x);
  return common::Json(std::move(a));
}

std::vector<double> series_from_json(const common::Json& j) {
  std::vector<double> out;
  out.reserve(j.size());
  for (const auto& v : j.as_array()) out.push_back(v.as_number());
  return out;
}

}  // namespace

common::Json to_json(const CampaignResult& result) {
  common::Json::Object doc;
  doc["schema_version"] = kSchemaVersion;
  doc["name"] = result.name;
  doc["makespan_h"] = result.makespan_h;
  doc["targets"] = result.targets;
  doc["root_pipelines"] = result.root_pipelines;
  doc["subpipelines"] = result.subpipelines;
  doc["generator_tasks"] = result.generator_tasks;
  doc["refine_tasks"] = result.refine_tasks;
  doc["energy_kwh"] = result.energy_kwh;
  doc["fold_tasks"] = result.fold_tasks;
  doc["fold_retries"] = result.fold_retries;
  doc["failed_tasks"] = result.failed_tasks;

  common::Json::Object util;
  util["cpu_active"] = result.utilization.cpu_active;
  util["cpu_allocated"] = result.utilization.cpu_allocated;
  util["gpu_active"] = result.utilization.gpu_active;
  util["gpu_allocated"] = result.utilization.gpu_allocated;
  util["span_seconds"] = result.utilization.span_seconds;
  doc["utilization"] = common::Json(std::move(util));

  common::Json::Object phases;
  for (const auto& [phase, hours] : result.phase_hours) phases[phase] = hours;
  doc["phase_hours"] = common::Json(std::move(phases));

  doc["cpu_series"] = series_to_json(result.cpu_series);
  doc["gpu_series"] = series_to_json(result.gpu_series);
  doc["gantt"] = result.gantt;

  common::Json::Array trajectories;
  for (const auto& t : result.trajectories) {
    common::Json::Object traj;
    traj["pipeline_id"] = t.pipeline_id;
    traj["target"] = t.target_name;
    traj["is_subpipeline"] = t.is_subpipeline;
    traj["terminated_early"] = t.terminated_early;
    traj["total_retries"] = t.total_retries;
    common::Json::Array history;
    for (const auto& rec : t.history) {
      common::Json::Object r;
      r["cycle"] = rec.cycle;
      r["metrics"] = metrics_to_json(rec.metrics);
      r["true_fitness"] = rec.true_fitness;
      r["accepted"] = rec.accepted;
      r["retries"] = rec.retries;
      r["sequence"] = rec.sequence;
      history.emplace_back(std::move(r));
    }
    traj["history"] = common::Json(std::move(history));
    trajectories.emplace_back(std::move(traj));
  }
  doc["trajectories"] = common::Json(std::move(trajectories));

  // Observability harvest, present only when the session recorded it —
  // dumps from untraced runs stay byte-identical to schema v1 output.
  if (!result.trace.empty()) doc["trace"] = obs::spans_to_json(result.trace);
  if (!result.metrics.empty())
    doc["metrics"] = obs::metrics_to_json(result.metrics);
  // Lockdep violations follow the same rule: absent unless a lockdep
  // build actually recorded one (default builds never populate this).
  if (!result.lockdep.empty()) {
    std::vector<common::Json> lines;
    lines.reserve(result.lockdep.size());
    for (const auto& line : result.lockdep) lines.emplace_back(line);
    doc["lockdep"] = common::Json(std::move(lines));
  }
  return common::Json(std::move(doc));
}

namespace {

CampaignResult result_from_tree(const common::Json& doc) {
  if (!doc.is_object() || !doc.contains("schema_version"))
    throw std::invalid_argument("session dump: not a campaign document");
  if (static_cast<int>(doc.at("schema_version").as_number()) != kSchemaVersion)
    throw std::invalid_argument("session dump: unsupported schema version");

  CampaignResult r;
  r.name = doc.at("name").as_string();
  r.makespan_h = doc.at("makespan_h").as_number();
  r.targets = static_cast<std::size_t>(doc.at("targets").as_number());
  r.root_pipelines =
      static_cast<std::size_t>(doc.at("root_pipelines").as_number());
  r.subpipelines = static_cast<std::size_t>(doc.at("subpipelines").as_number());
  r.generator_tasks =
      static_cast<std::size_t>(doc.at("generator_tasks").as_number());
  r.refine_tasks =
      doc.contains("refine_tasks")
          ? static_cast<std::size_t>(doc.at("refine_tasks").as_number())
          : 0;
  r.energy_kwh =
      doc.contains("energy_kwh") ? doc.at("energy_kwh").as_number() : 0.0;
  r.fold_tasks = static_cast<std::size_t>(doc.at("fold_tasks").as_number());
  r.fold_retries = static_cast<std::size_t>(doc.at("fold_retries").as_number());
  r.failed_tasks = static_cast<std::size_t>(doc.at("failed_tasks").as_number());

  const auto& util = doc.at("utilization");
  r.utilization.cpu_active = util.at("cpu_active").as_number();
  r.utilization.cpu_allocated = util.at("cpu_allocated").as_number();
  r.utilization.gpu_active = util.at("gpu_active").as_number();
  r.utilization.gpu_allocated = util.at("gpu_allocated").as_number();
  r.utilization.span_seconds = util.at("span_seconds").as_number();

  for (const auto& [phase, hours] : doc.at("phase_hours").as_object())
    r.phase_hours[phase] = hours.as_number();

  r.cpu_series = series_from_json(doc.at("cpu_series"));
  r.gpu_series = series_from_json(doc.at("gpu_series"));
  r.gantt = doc.at("gantt").as_string();

  for (const auto& traj : doc.at("trajectories").as_array()) {
    TrajectoryResult t;
    t.pipeline_id = traj.at("pipeline_id").as_string();
    t.target_name = traj.at("target").as_string();
    t.is_subpipeline = traj.at("is_subpipeline").as_bool();
    t.terminated_early = traj.at("terminated_early").as_bool();
    t.total_retries = static_cast<int>(traj.at("total_retries").as_number());
    for (const auto& rec : traj.at("history").as_array()) {
      IterationRecord ir;
      ir.cycle = static_cast<int>(rec.at("cycle").as_number());
      ir.metrics = metrics_from_json(rec.at("metrics"));
      ir.true_fitness = rec.at("true_fitness").as_number();
      ir.accepted = rec.at("accepted").as_bool();
      ir.retries = static_cast<int>(rec.at("retries").as_number());
      ir.sequence = rec.at("sequence").as_string();
      t.history.push_back(std::move(ir));
    }
    r.trajectories.push_back(std::move(t));
  }

  if (doc.contains("trace")) r.trace = obs::spans_from_json(doc.at("trace"));
  if (doc.contains("metrics"))
    r.metrics = obs::metrics_from_json(doc.at("metrics"));
  // Keys this reader does not know (e.g. the "infer" batching section
  // older dumps carry) are ignored.
  if (doc.contains("lockdep"))
    for (const auto& line : doc.at("lockdep").as_array())
      r.lockdep.push_back(line.as_string());
  return r;
}

}  // namespace

CampaignResult campaign_result_from_json(const common::Json& doc) {
  // As in campaign_checkpoint_from_json: the accessors' out_of_range and
  // bad_variant_access both mean a corrupt document.
  try {
    return result_from_tree(doc);
  } catch (const std::out_of_range&) {
    throw std::invalid_argument("session dump: missing member");
  } catch (const std::bad_variant_access&) {
    throw std::invalid_argument("session dump: member of the wrong type");
  }
}

void save_session_dump(const CampaignResult& result, const std::string& path) {
  write_text_file(path, to_json(result).dump(2) + "\n");
}

CampaignResult load_session_dump(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("session dump: cannot open " + path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return campaign_result_from_json(common::Json::parse(ss.str()));
}

}  // namespace impress::core
