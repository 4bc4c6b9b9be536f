// Session dumps: archive a finished campaign as a JSON document and load
// it back — the analog of RADICAL-Pilot's session directories consumed by
// radical.analytics. Every field of CampaignResult round-trips, so
// analysis (report tables, figures, CSV export) can run on stored dumps
// without re-simulating.

#pragma once

#include <string>

#include "common/json.hpp"
#include "core/campaign.hpp"

namespace impress::core {

/// Serialize a campaign result (schema version included).
[[nodiscard]] common::Json to_json(const CampaignResult& result);

/// Rebuild a CampaignResult from a dump. Throws std::invalid_argument on
/// schema mismatch and on a missing or mistyped member.
[[nodiscard]] CampaignResult campaign_result_from_json(const common::Json& doc);

/// Convenience wrappers over to_json/parse + file I/O.
void save_session_dump(const CampaignResult& result, const std::string& path);
[[nodiscard]] CampaignResult load_session_dump(const std::string& path);

}  // namespace impress::core
