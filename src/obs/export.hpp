// Exporters: chrome://tracing-compatible JSON (loads in Perfetto and
// chrome://tracing) and a Prometheus-style text dump.
//
// Chrome trace mapping: each closed span becomes one complete event
//   {"name", "cat", "ph":"X", "ts": <µs>, "dur": <µs>, "pid":1,
//    "tid": <track>, "args": {...attrs, "span_id", "parent_id"}}
// Track (tid) assignment keeps the tree readable: the campaign root is
// track 0, every pipeline span opens its own track, and every other span
// inherits its parent's track — so one horizontal lane per pipeline with
// stage/task/attempt/phase spans stacked inside it by time containment.
// "M"-phase metadata events name the tracks. Spans never closed are
// emitted with dur 0 (visible as instants rather than dropped).

#pragma once

#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace impress::obs {

/// Build the chrome trace document from a span snapshot.
[[nodiscard]] common::Json chrome_trace(const std::vector<SpanRecord>& spans);

/// Serialized chrome trace document (compact unless indent > 0).
[[nodiscard]] std::string chrome_trace_json(
    const std::vector<SpanRecord>& spans, int indent = 0);

/// Prometheus text exposition format: # HELP/# TYPE headers, _total
/// suffix on counters, histogram cumulative _bucket{le="..."} series plus
/// _sum and _count.
[[nodiscard]] std::string prometheus_text(const MetricsSnapshot& snapshot);

/// (De)serialize span/metrics snapshots for session dumps and checkpoints
/// (core/session_dump.hpp and core/checkpoint.hpp embed these under
/// "trace" / "metrics"). The write_* functions are the serializers; the
/// *_to_json forms return the tree their text parses to. write_span writes
/// one element of the array write_spans writes.
void write_span(common::JsonWriter& w, const SpanRecord& span);
void write_spans(common::JsonWriter& w, const std::vector<SpanRecord>& spans);
[[nodiscard]] common::Json spans_to_json(const std::vector<SpanRecord>& spans);
[[nodiscard]] std::vector<SpanRecord> spans_from_json(const common::Json& doc);
void write_metrics(common::JsonWriter& w, const MetricsSnapshot& snapshot);
[[nodiscard]] common::Json metrics_to_json(const MetricsSnapshot& snapshot);
[[nodiscard]] MetricsSnapshot metrics_from_json(const common::Json& doc);

}  // namespace impress::obs
