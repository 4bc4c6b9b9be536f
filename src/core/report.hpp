// Aggregation and rendering of the paper's evaluation artifacts:
// Table I and the metric/utilization figures (Figs 2-5).

#pragma once

#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/campaign.hpp"

namespace impress::core {

enum class Metric { kPlddt, kPtm, kIpae };

[[nodiscard]] std::string_view metric_name(Metric m) noexcept;
[[nodiscard]] bool higher_is_better(Metric m) noexcept;
[[nodiscard]] double metric_value(const fold::FoldMetrics& metrics,
                                  Metric m) noexcept;

/// Design-pool view of a campaign: for every cycle k (1-based) and every
/// target, the metric of the best accepted design of that target up to and
/// including cycle k (carry-forward over gaps). Result is
/// [cycles][targets-with-data].
[[nodiscard]] std::vector<std::vector<double>> metric_by_cycle(
    const CampaignResult& result, Metric m, int cycles);

/// Median of the pool metric at a cycle (1-based).
[[nodiscard]] double median_at_cycle(const CampaignResult& result, Metric m,
                                     int cycle, int cycles);

/// Net metric change from the first to the last cycle (medians), the
/// "Net Delta" columns of Table I.
[[nodiscard]] double net_delta(const CampaignResult& result, Metric m,
                               int cycles);

/// Table I: experimental setup and results for both arms. IM-RP's net
/// deltas carry their change relative to CONT-V's, signed so that + is
/// better for the metric, or "(-)" when CONT-V's delta is near zero.
[[nodiscard]] common::Table table1(const CampaignResult& cont_v,
                                   const CampaignResult& im_rp, int cycles);

/// Fig 2/3 style grouped bar chart: median metric per iteration for one or
/// more campaigns, error bars = half a standard deviation.
[[nodiscard]] std::string render_metric_figure(
    const std::string& title, const std::vector<const CampaignResult*>& arms,
    Metric m, int cycles);

/// Fig 4/5 style utilization timelines with the runtime phase breakdown.
[[nodiscard]] std::string render_utilization_figure(
    const CampaignResult& result, const std::string& title);

/// Fault-tolerance summary: retry / timeout / requeue / pilot-outage
/// totals plus the per-task attempt distribution, so a report shows how
/// much of a faulty campaign's work was first-attempt vs recovery.
[[nodiscard]] std::string render_fault_summary(const CampaignResult& result);

}  // namespace impress::core
