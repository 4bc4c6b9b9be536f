#include "runtime/session.hpp"

#include <algorithm>
#include <limits>
#include <mutex>
#include <stdexcept>

#include "common/logging.hpp"

namespace impress::rp {

Session::Session(SessionConfig config) : Session(config, 0.0) {}

Session::Session(SessionConfig config, double start_s)
    : config_(config),
      obs_(obs::Observability::Config{.tracing = config.enable_tracing,
                                      .metrics = config.enable_metrics}),
      rng_(common::Rng(config.seed)),
      wall_start_(std::chrono::steady_clock::now()),
      clock_offset_(config.mode == ExecutionMode::kThreaded ? start_s : 0.0) {
  // A fresh engine has no live events and now() == 0, so this can only
  // fail on a corrupt checkpoint (negative clock) — a bug that must not be
  // absorbed into a silently-wrong clock.
  if (config_.mode == ExecutionMode::kSimulated && !engine_.warp_to(start_s))
    throw std::logic_error(
        "Session restore: illegal clock warp (clock would move backwards)");
  obs_.tracer().set_clock([this] { return now(); });
  if (config_.mode == ExecutionMode::kThreaded)
    pool_.emplace(config_.worker_threads);
  if (config_.faults.any())
    faults_.emplace(config_.faults, rng_.fork("faults"));
  tmgr_ = std::make_unique<TaskManager>(
      uids_, obs_, [this] { return now(); },
      [this](double delay_s, std::function<void()> fn) {
        call_after(delay_s, std::move(fn));
      },
      rng_.fork("tmgr"));
  if (config_.mode == ExecutionMode::kThreaded)
    pacer_ = std::thread([this] { pace(); });
}

Session::Session(SessionConfig config, const SessionRestore& restore)
    : Session(config, restore.now) {
  // The clock is already at the cut: preloaded marks and spans carry
  // pre-cut times, and everything recorded from here on stamps post-cut
  // times.
  obs_.tracer().preload(restore.profiler_events, restore.trace,
                        restore.trace_next_seq);
  obs_.registry().preload(restore.metrics);
  uids_.restore_counters(restore.uid_counters);
  tmgr_->restore_counters(restore.task_counters);
}

Session::~Session() {
  close();
  if (!pacer_.joinable()) return;
  // Events not yet due are dropped; the pool, destroyed after this body,
  // still runs every callback the pacer handed it.
  {
    std::lock_guard lock(engine_mutex_);
    stopping_ = true;
  }
  pacer_cv_.notify_one();
  common::lockdep::check_blocking("Session pacer join");
  pacer_.join();
}

double Session::now() const {
  if (config_.mode == ExecutionMode::kSimulated) return engine_.now();
  const auto wall = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - wall_start_)
                        .count();
  return clock_offset_ + wall / config_.time_scale;
}

common::Rng Session::fork_rng(std::string_view tag) const {
  return rng_.fork(tag);
}

std::unique_ptr<Executor> Session::make_executor(Pilot& pilot) {
  return std::make_unique<Executor>(pilot, obs_,
                                    rng_.fork("executor." + pilot.uid()),
                                    faults_ ? &*faults_ : nullptr, *this);
}

void Session::register_pilot(PilotPtr pilot, std::unique_ptr<Executor> exec) {
  pilot->attach(*exec, tmgr_->terminal_handler(), tmgr_->requeue_handler());
  executors_.push_back(std::move(exec));
  pilots_.push_back(pilot);
  tmgr_->add_pilot(std::move(pilot));
}

void Session::arm_outages(const PilotPtr& pilot, std::size_t index,
                          double horizon_s) {
  for (const auto& outage : config_.faults.pilot_outages) {
    if (outage.pilot_index != index || outage.at_s <= horizon_s) continue;
    const double delay = std::max(0.0, outage.at_s - now());
    IMPRESS_LOG(kInfo, "session")
        << "pilot " << pilot->uid() << " will fail at t=" << outage.at_s;
    call_after(delay, [pilot] { pilot->fail(); });
  }
  for (const auto& reclaim : config_.faults.spot_reclaims) {
    if (reclaim.pilot_index != index) continue;
    // The eviction and the capacity return are armed independently against
    // the horizon: a checkpoint cut during the outage window re-arms only
    // the return, so a resumed run reactivates the pilot on schedule.
    if (reclaim.at_s > horizon_s) {
      IMPRESS_LOG(kInfo, "session")
          << "pilot " << pilot->uid() << " spot capacity reclaimed at t="
          << reclaim.at_s << " for " << reclaim.down_s << "s";
      call_after(std::max(0.0, reclaim.at_s - now()),
                 [pilot] { pilot->fail(); });
    }
    const double back_s = reclaim.at_s + reclaim.down_s;
    if (back_s > horizon_s) {
      call_after(std::max(0.0, back_s - now()),
                 [pilot] { pilot->reactivate(); });
    }
  }
}

PilotPtr Session::submit_pilot(const PilotDescription& description) {
  auto pilot = std::make_shared<Pilot>(uids_.next("pilot"), description,
                                       obs_, [this] { return now(); });
  register_pilot(pilot, make_executor(*pilot));
  call_after(description.bootstrap_s, [pilot] { pilot->activate(); });
  // Arm any scheduled outage for this pilot (index in submission order).
  arm_outages(pilot, pilots_.size() - 1,
              -std::numeric_limits<double>::infinity());
  return pilot;
}

PilotPtr Session::submit_pilot(const PilotDescription& description,
                               const PilotRestore& restore) {
  // The checkpointed uid is reused verbatim; the uid counters restored at
  // construction already account for it, so next("pilot") is not drawn.
  auto pilot = std::make_shared<Pilot>(restore.uid, description, obs_,
                                       [this] { return now(); },
                                       /*restored=*/true);
  for (const auto& interval : restore.intervals)
    pilot->recorder().record(interval);
  auto exec = make_executor(*pilot);
  exec->restore_rng_state(restore.executor_rng);
  register_pilot(pilot, std::move(exec));
  // Bootstrap completed before the cut (its marks are preloaded); jump
  // straight to the checkpointed lifecycle state.
  pilot->restore_state(restore.failed ? PilotState::kFailed
                                      : PilotState::kActive);
  // Re-arm only outages that had not fired by the cut.
  arm_outages(pilot, pilots_.size() - 1, now());
  return pilot;
}

std::vector<PilotRestore> Session::checkpoint_pilots() const {
  std::vector<PilotRestore> out;
  out.reserve(pilots_.size());
  for (std::size_t i = 0; i < pilots_.size(); ++i) {
    PilotRestore pr;
    pr.uid = pilots_[i]->uid();
    pr.failed = pilots_[i]->state() == PilotState::kFailed;
    pr.executor_rng = executors_[i]->rng_state();
    pr.intervals = pilots_[i]->recorder().intervals();
    out.push_back(std::move(pr));
  }
  return out;
}

void Session::run() {
  if (config_.mode == ExecutionMode::kSimulated) {
    engine_.run();
  } else {
    tmgr_->wait_all();
  }
}

sim::EventId Session::call_at(double t, std::function<void()> fn) {
  if (config_.mode == ExecutionMode::kSimulated)
    return engine_.schedule_at(t, std::move(fn));
  sim::EventId id = 0;
  {
    std::lock_guard lock(engine_mutex_);
    id = engine_.schedule_at(t, [this, fn = std::move(fn)]() mutable {
      // noexcept: an exception a callback lets escape ends the program,
      // as it would on a thread of its own, rather than vanishing into
      // the pool's discarded future.
      pool_->submit([fn = std::move(fn)]() noexcept { fn(); });
    });
  }
  pacer_cv_.notify_one();
  return id;
}

bool Session::cancel(sim::EventId id) {
  if (config_.mode == ExecutionMode::kSimulated) return engine_.cancel(id);
  std::lock_guard lock(engine_mutex_);
  return engine_.cancel(id);
}

void Session::call_after(double delay_s, std::function<void()> fn) {
  call_at(now() + std::max(delay_s, 0.0), std::move(fn));
}

void Session::pace() {
  std::unique_lock lock(engine_mutex_);
  while (!stopping_) {
    const std::optional<sim::SimTime> next = engine_.next_time();
    if (next && *next <= now()) {
      engine_.step();  // the event's wrapper hands its callback to the pool
      continue;
    }
    // Sleep until the head event is due, or until it changes (call_at
    // queued an earlier one) or the session stops.
    const auto changed = [&] {
      return stopping_ || engine_.next_time() != next;
    };
    if (!next) {
      pacer_cv_.wait(lock, changed);
    } else {
      pacer_cv_.wait_for(lock,
                         std::chrono::duration<double>(
                             (*next - now()) * config_.time_scale),
                         changed);
    }
  }
}

void Session::close() {
  for (const auto& p : pilots_) p->finish();
}

}  // namespace impress::rp
