// CampaignService: the multi-tenant front door for campaign submissions.
//
// N tenants submit campaigns concurrently; the service applies admission
// control (per-tenant token-bucket rates + open-submission quotas + a
// global open cap), queues admitted work per tenant, and dispatches with
// strict priority across tiers and deficit-round-robin fair-share within
// a tier. Per-tenant admission rates adapt via PCC-style utility-gradient
// backpressure (service/backpressure.hpp).
//
// Hot-path contract (pinned by tests/service/test_alloc_free.cpp and the
// impress_lint hot-path rules): after construction, submit() performs
// ZERO heap allocations and no string work — records come from a fixed
// SlabPool, admission is a handful of relaxed atomics, and enqueue is one
// lock-free MPSC push. tick() and the completion callbacks are likewise
// allocation-free in steady state.
//
// Threading model:
//   * submit()            — any thread, lock-free fast path;
//   * tick()              — exactly ONE pump thread (or the bench loop);
//   * on_first_result()/
//     on_complete()       — any thread (the backend's), guarded by a leaf
//                           mutex + atomics;
//   * report()            — cold path; exact once producers/backend have
//                           quiesced.
//
// Determinism: every timestamp is caller-supplied (std::uint64_t
// nanoseconds on an arbitrary epoch), so a single-threaded driver in
// virtual time replays the exact admission/rejection/dispatch sequence
// for a given seed — the same (time, seq) contract the simulator keeps.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.hpp"
#include "common/lockdep.hpp"
#include "common/pool.hpp"
#include "obs/obs.hpp"
#include "runtime/load.hpp"
#include "service/backpressure.hpp"
#include "service/submission.hpp"

namespace impress::service {

/// Where admitted submissions execute. start() takes ownership of the
/// record until it reports back via CampaignService::on_first_result /
/// on_complete — synchronously (virtual-time backends) or from its own
/// threads (the stress suite's executor). Every started record must
/// eventually complete.
class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;
  virtual void start(SubmissionRecord& rec, std::uint64_t now_ns) = 0;
  /// Queue-depth/saturation signal (runtime/load.hpp).
  [[nodiscard]] virtual rp::LoadSnapshot load() const = 0;
};

struct TenantConfig {
  std::string name;  ///< cold path only (reports); never touched by submit
  Tier tier = Tier::kStandard;
  /// DRR weight: relative share of dispatch bandwidth within the tier.
  std::uint32_t weight = 1;
  /// Quota: max open submissions (queued + in flight) for this tenant.
  std::uint32_t max_open = 256;
  /// Starting admission rate (submissions/s); backpressure adapts it.
  double initial_rate = 8.0;
  /// Token-bucket depth in seconds of the current rate (burst headroom).
  double burst_s = 2.0;
};

struct ServiceConfig {
  std::vector<TenantConfig> tenants;
  /// Global cap on open submissions; also sizes the record pool, so the
  /// steady state can never need a fresh allocation.
  std::size_t global_max_open = 4096;
  /// Max submissions dispatched to the backend and not yet complete.
  std::size_t max_dispatched = 512;
  /// Dispatch budget per tick() (bounds pump latency per call).
  std::size_t max_dispatch_per_tick = 256;
  /// Queued submissions older than this are shed at dispatch time
  /// (0 = never shed).
  std::uint64_t shed_age_ns = 0;
  /// DRR quantum: cost units credited per round per unit of weight.
  std::uint32_t drr_quantum = 4;
  bool backpressure_enabled = true;
  BackpressureConfig backpressure;
  /// Metrics sink; nullptr = a private disabled registry (no-op handles).
  obs::MetricsRegistry* registry = nullptr;
  /// Service clock origin (first tick must be >= this).
  std::uint64_t start_ns = 0;
};

/// Cold-path snapshot of one tenant (see CampaignService::report()).
struct TenantReport {
  std::string name;
  Tier tier = Tier::kStandard;
  std::uint32_t weight = 1;
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected_rate = 0;
  std::uint64_t rejected_quota = 0;
  std::uint64_t rejected_capacity = 0;
  std::uint64_t shed = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t completed = 0;
  std::uint64_t first_results = 0;
  std::uint32_t queued_now = 0;
  double admission_rate = 0.0;  ///< controller's current applied rate
  double mean_first_result_s = 0.0;
  double mean_quality = 0.0;
};

struct ServiceReport {
  std::vector<TenantReport> tenants;
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;  ///< all rejection classes
  std::uint64_t shed = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t completed = 0;
  std::size_t queued_now = 0;
  std::size_t in_flight_now = 0;
  /// Submit -> first-result latency quantiles (ns; 0 when empty).
  std::uint64_t first_result_p50_ns = 0;
  std::uint64_t first_result_p99_ns = 0;
  std::uint64_t first_result_p999_ns = 0;
  /// Jain fairness index over per-tenant weight-normalized completions
  /// (tenants that submitted nothing are excluded; 1.0 = perfectly fair).
  double fairness_jain = 1.0;
  common::SlabPool<SubmissionRecord>::Stats pool;
};

/// Human-readable table (cold path; service_report.cpp).
[[nodiscard]] std::string render(const ServiceReport& report);

class CampaignService {
 public:
  CampaignService(ServiceConfig config, ExecutionBackend& backend);
  ~CampaignService();

  CampaignService(const CampaignService&) = delete;
  CampaignService& operator=(const CampaignService&) = delete;

  /// Admission fast path — any thread, allocation-free, lock-free except
  /// the pool freelist pop. `cost` is the DRR billing weight (>= 1);
  /// `seed` is the campaign payload seed handed to the backend.
  SubmitResult submit(TenantId tenant, std::uint64_t seed, std::uint32_t cost,
                      std::uint64_t now_ns);

  /// The pump: drain the inbox, refill token buckets, roll monitoring
  /// intervals (backpressure), shed stale work, and dispatch via
  /// tiered DRR. Single consumer — call from exactly one thread.
  void tick(std::uint64_t now_ns);

  /// Backend callbacks (any thread). A completion without a prior first
  /// result counts as both (single-result campaigns).
  void on_first_result(SubmissionRecord& rec, std::uint64_t now_ns);
  void on_complete(SubmissionRecord& rec, std::uint64_t now_ns,
                   double quality);

  [[nodiscard]] std::size_t tenant_count() const noexcept {
    return tenants_.size();
  }
  /// Open submissions (admitted, not yet complete/shed) right now.
  [[nodiscard]] std::size_t open_now() const noexcept;
  /// Dispatched-to-backend and not yet complete.
  [[nodiscard]] std::size_t in_flight_now() const noexcept;
  /// Current applied admission rate for one tenant (pump-written; exact
  /// between ticks).
  [[nodiscard]] double admission_rate(TenantId tenant) const;

  /// Cold-path snapshot (exact once producers and backend are quiet).
  [[nodiscard]] ServiceReport report() const;

  [[nodiscard]] const ServiceConfig& config() const noexcept {
    return config_;
  }

 private:
  struct TenantState;

  // tick() stages (pump thread only).
  void drain_inbox();
  void refill_tokens(std::uint64_t now_ns);
  void roll_interval(std::uint64_t now_ns);
  void dispatch(std::uint64_t now_ns);
  /// True when the record was shed instead of dispatched.
  bool shed_if_stale(TenantState& ts, SubmissionRecord& rec,
                     std::uint64_t now_ns);
  void release_open(TenantState& ts);

  ServiceConfig config_;
  obs::MetricsRegistry fallback_registry_{false};
  obs::ServiceMetrics metrics_;

  /// Leaf lock guarding the first-result latency histogram and the
  /// completion-side per-tenant sums (never calls out while held).
  mutable common::TrackedMutex completion_mutex_{
      "CampaignService::completion_mutex_"};

  common::SlabPool<SubmissionRecord> pool_;
  common::MpscInbox<SubmissionRecord> inbox_;
  std::vector<std::unique_ptr<TenantState>> tenants_;
  ExecutionBackend* backend_;

  // Submit fast path (any thread).
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::int64_t> global_open_{0};

  // Dispatch/completion shared state.
  std::atomic<std::int64_t> in_flight_{0};

  // Pump-owned.
  std::vector<std::uint32_t> tier_members_[kTierCount];
  std::size_t tier_cursor_[kTierCount] = {};
  std::size_t queued_total_ = 0;
  std::uint64_t last_refill_ns_ = 0;
  std::uint64_t interval_start_ns_ = 0;
  std::uint64_t shed_total_ = 0;
  std::uint64_t dispatched_total_ = 0;

  common::HdrHistogram first_result_ns_{7};  // guarded by completion_mutex_
};

}  // namespace impress::service
