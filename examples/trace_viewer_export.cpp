// Trace-viewer export: run a small traced campaign and write everything
// the observability layer produces —
//
//   trace.json    chrome://tracing / Perfetto (load via ui.perfetto.dev)
//   metrics.prom  Prometheus text exposition
//
//   $ ./examples/trace_viewer_export [OUTDIR] [seed]
//
// The trace shows the full nesting the runtime records: the campaign
// root, one lane per pipeline (sub-pipelines included), stage spans per
// protocol cycle, task spans covering every retry, attempt spans per
// executor launch, and the phase/work spans inside them (exec_setup,
// mpnn.design, fold.predict).

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/export.hpp"
#include "obs/export.hpp"
#include "protein/datasets.hpp"

using namespace impress;

int main(int argc, char** argv) {
  const std::string outdir = argc > 1 ? argv[1] : ".";
  std::uint64_t seed = 5;
  if (argc > 2) seed = std::stoull(argv[2]);

  // Four targets keep the trace small enough to eyeball while still
  // exercising sub-pipeline spawns and fold retries.
  const auto targets = protein::four_pdz_domains();
  auto config = core::im_rp_campaign(seed);
  config.session.enable_tracing = true;
  config.session.enable_metrics = true;

  core::Campaign campaign(config);
  const auto result = campaign.run(targets);

  // Depth of the recorded span tree (campaign = 1).
  std::map<obs::SpanId, obs::SpanId> parent_of;
  for (const auto& span : result.trace) parent_of[span.id] = span.parent;
  std::size_t max_depth = 0;
  for (const auto& span : result.trace) {
    std::size_t depth = 1;
    for (auto it = parent_of.find(span.parent);
         it != parent_of.end() && depth <= parent_of.size();
         it = parent_of.find(it->second))
      ++depth;
    max_depth = std::max(max_depth, depth);
  }
  std::printf("campaign %s: %zu spans, %zu levels deep\n",
              result.name.c_str(), result.trace.size(), max_depth);

  const std::string trace_path = outdir + "/trace.json";
  core::write_text_file(trace_path,
                        obs::chrome_trace_json(result.trace, 2) + "\n");
  std::printf("wrote %s — open at https://ui.perfetto.dev\n",
              trace_path.c_str());

  const std::string metrics_path = outdir + "/metrics.prom";
  core::write_text_file(metrics_path, obs::prometheus_text(result.metrics));
  std::printf("wrote %s\n", metrics_path.c_str());

  // A taste of the metrics on stdout.
  for (const auto& c : result.metrics.counters)
    std::printf("  %-36s %llu\n", c.name.c_str(),
                static_cast<unsigned long long>(c.value));
  return max_depth >= 4 ? 0 : 1;  // the tree must actually nest
}
