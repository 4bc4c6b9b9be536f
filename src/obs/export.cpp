#include "obs/export.hpp"

#include <cmath>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace impress::obs {

namespace {

using common::Json;

/// Prometheus float formatting: integers render bare, everything else
/// with enough digits to round-trip.
std::string format_number(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

common::Json chrome_trace(const std::vector<SpanRecord>& spans) {
  // Assign tracks: campaign root -> 0, pipelines -> fresh track, others
  // inherit. Spans arrive ordered by open_seq, so a parent's track is
  // always assigned before its children ask for it.
  std::unordered_map<SpanId, std::uint64_t> track;
  // Ordered: the metadata events below iterate this, and trace files must
  // come out byte-identical run to run (hash order would leak into them).
  std::map<std::uint64_t, std::string> track_name;
  std::uint64_t next_track = 1;

  Json::Array events;
  for (const auto& s : spans) {
    std::uint64_t tid = 0;
    if (s.category == categories::kPipeline) {
      tid = next_track++;
      track_name[tid] = s.name;
    } else if (const auto it = track.find(s.parent); it != track.end()) {
      tid = it->second;
    }
    track[s.id] = tid;
    if (track_name.find(0) == track_name.end() &&
        s.category == categories::kCampaign)
      track_name[0] = s.name;

    const double end = s.closed() ? s.end : s.start;
    Json::Object args;
    args["span_id"] = static_cast<double>(s.id);
    if (s.parent != 0) args["parent_id"] = static_cast<double>(s.parent);
    for (const auto& [k, v] : s.attrs) args[k] = v;

    Json::Object ev;
    ev["name"] = s.name;
    ev["cat"] = s.category;
    ev["ph"] = "X";
    ev["ts"] = s.start * 1e6;
    ev["dur"] = (end - s.start) * 1e6;
    ev["pid"] = 1;
    ev["tid"] = static_cast<double>(tid);
    ev["args"] = std::move(args);
    events.push_back(std::move(ev));
  }

  // Name the tracks (chrome "M" metadata events).
  for (const auto& [tid, name] : track_name) {
    Json::Object ev;
    ev["name"] = "thread_name";
    ev["ph"] = "M";
    ev["pid"] = 1;
    ev["tid"] = static_cast<double>(tid);
    ev["args"] = Json::Object{{"name", name}};
    events.push_back(std::move(ev));
  }

  Json::Object doc;
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  return doc;
}

std::string chrome_trace_json(const std::vector<SpanRecord>& spans,
                              int indent) {
  return chrome_trace(spans).dump(indent);
}

std::string prometheus_text(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& c : snapshot.counters) {
    out += "# HELP " + c.name + "_total Monotonic event counter.\n";
    out += "# TYPE " + c.name + "_total counter\n";
    out += c.name + "_total " + std::to_string(c.value) + "\n";
  }
  for (const auto& g : snapshot.gauges) {
    out += "# HELP " + g.name + " Instantaneous value.\n";
    out += "# TYPE " + g.name + " gauge\n";
    out += g.name + " " + format_number(g.value) + "\n";
  }
  for (const auto& h : snapshot.histograms) {
    out += "# HELP " + h.name + " Fixed-bucket histogram.\n";
    out += "# TYPE " + h.name + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      cumulative += i < h.buckets.size() ? h.buckets[i] : 0;
      out += h.name + "_bucket{le=\"" + format_number(h.bounds[i]) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += h.name + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += h.name + "_sum " + format_number(h.sum) + "\n";
    out += h.name + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

void write_span(common::JsonWriter& w, const SpanRecord& s) {
  w.begin_object();
  if (!s.attrs.empty()) {
    w.key("attrs").begin_array();
    for (const auto& [k, v] : s.attrs)
      w.begin_array().value(k).value(v).end_array();
    w.end_array();
  }
  w.key("category").value(s.category);
  w.key("close_seq").value(s.close_seq);
  w.key("end").value(s.end);
  w.key("id").value(s.id);
  w.key("name").value(s.name);
  w.key("open_seq").value(s.open_seq);
  w.key("parent").value(s.parent);
  w.key("start").value(s.start);
  w.end_object();
}

void write_spans(common::JsonWriter& w, const std::vector<SpanRecord>& spans) {
  w.begin_array();
  for (const auto& s : spans) write_span(w, s);
  w.end_array();
}

common::Json spans_to_json(const std::vector<SpanRecord>& spans) {
  common::JsonWriter w;
  write_spans(w, spans);
  return Json::parse(w.take());
}

std::vector<SpanRecord> spans_from_json(const common::Json& doc) {
  std::vector<SpanRecord> out;
  out.reserve(doc.size());
  for (const auto& o : doc.as_array()) {
    SpanRecord s;
    s.id = static_cast<SpanId>(o.at("id").as_number());
    s.parent = static_cast<SpanId>(o.at("parent").as_number());
    s.name = o.at("name").as_string();
    s.category = o.at("category").as_string();
    s.start = o.at("start").as_number();
    s.end = o.at("end").as_number();
    s.open_seq = static_cast<std::uint64_t>(o.at("open_seq").as_number());
    s.close_seq = static_cast<std::uint64_t>(o.at("close_seq").as_number());
    if (o.contains("attrs"))
      for (const auto& kv : o.at("attrs").as_array())
        s.attrs.emplace_back(kv.at(0).as_string(), kv.at(1).as_string());
    out.push_back(std::move(s));
  }
  return out;
}

void write_metrics(common::JsonWriter& w, const MetricsSnapshot& snapshot) {
  w.begin_object();
  w.key("counters").begin_array();
  for (const auto& c : snapshot.counters)
    w.begin_object().key("name").value(c.name).key("value").value(c.value)
        .end_object();
  w.end_array();
  w.key("gauges").begin_array();
  for (const auto& g : snapshot.gauges)
    w.begin_object().key("name").value(g.name).key("value").value(g.value)
        .end_object();
  w.end_array();
  w.key("histograms").begin_array();
  for (const auto& h : snapshot.histograms) {
    w.begin_object();
    w.key("bounds").begin_array();
    for (const double b : h.bounds) w.value(b);
    w.end_array();
    w.key("buckets").begin_array();
    for (const std::uint64_t b : h.buckets) w.value(b);
    w.end_array();
    w.key("count").value(h.count);
    w.key("name").value(h.name);
    w.key("sum").value(h.sum);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

common::Json metrics_to_json(const MetricsSnapshot& snapshot) {
  common::JsonWriter w;
  write_metrics(w, snapshot);
  return Json::parse(w.take());
}

MetricsSnapshot metrics_from_json(const common::Json& doc) {
  MetricsSnapshot out;
  for (const auto& c : doc.at("counters").as_array())
    out.counters.push_back(CounterSample{
        c.at("name").as_string(),
        static_cast<std::uint64_t>(c.at("value").as_number())});
  for (const auto& g : doc.at("gauges").as_array())
    out.gauges.push_back(
        GaugeSample{g.at("name").as_string(), g.at("value").as_number()});
  for (const auto& h : doc.at("histograms").as_array()) {
    HistogramSample s;
    s.name = h.at("name").as_string();
    for (const auto& b : h.at("bounds").as_array())
      s.bounds.push_back(b.as_number());
    for (const auto& b : h.at("buckets").as_array())
      s.buckets.push_back(static_cast<std::uint64_t>(b.as_number()));
    s.count = static_cast<std::uint64_t>(h.at("count").as_number());
    s.sum = h.at("sum").as_number();
    out.histograms.push_back(std::move(s));
  }
  return out;
}

}  // namespace impress::obs
