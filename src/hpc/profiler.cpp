#include "hpc/profiler.hpp"

#include <algorithm>
#include <unordered_map>

namespace impress::hpc {

namespace {

/// Thread-local map from profiler id to that profiler's buffer for this
/// thread. Ids are process-unique and never reused, so a stale entry for
/// a destroyed profiler can never be matched (and its dangling pointer is
/// never dereferenced). The cache is bounded; eviction only costs a
/// re-registration (an extra buffer) if that profiler is used again from
/// this thread.
struct TlsEntry {
  std::uint64_t id = 0;
  void* buffer = nullptr;
};
constexpr std::size_t kTlsCacheCap = 64;
thread_local std::vector<TlsEntry> tls_buffers;  // NOLINT

std::uint64_t next_profiler_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Profiler::Profiler() : id_(next_profiler_id()) {}

Profiler::Buffer& Profiler::local_buffer() {
  for (const auto& e : tls_buffers)
    if (e.id == id_) return *static_cast<Buffer*>(e.buffer);
  auto owned = std::make_unique<Buffer>();
  Buffer* raw = owned.get();
  {
    std::lock_guard lock(registry_mutex_);
    buffers_.push_back(std::move(owned));
  }
  if (tls_buffers.size() >= kTlsCacheCap)
    tls_buffers.erase(tls_buffers.begin());
  tls_buffers.push_back(TlsEntry{id_, raw});
  return *raw;
}

void Profiler::record(double time, std::string_view entity,
                      std::string_view event, std::string_view info) {
  Buffer& buf = local_buffer();
  const std::uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  // Build the entry (three string allocations) before taking the lock:
  // the writer/reader critical section covers only the push itself.
  Entry entry{seq,
              ProfileEvent{time, std::string(entity), std::string(event),
                           std::string(info)}};
  std::lock_guard lock(buf.mutex);
  buf.entries.push_back(std::move(entry));
}

std::vector<Profiler::Entry> Profiler::merged() const {
  std::vector<Entry> out;
  std::lock_guard registry_lock(registry_mutex_);
  for (const auto& buf : buffers_) {
    std::lock_guard lock(buf->mutex);
    out.insert(out.end(), buf->entries.begin(), buf->entries.end());
  }
  std::sort(out.begin(), out.end(),
            [](const Entry& a, const Entry& b) { return a.seq < b.seq; });
  return out;
}

std::vector<ProfileEvent> Profiler::events() const {
  std::vector<ProfileEvent> out;
  auto entries = merged();
  out.reserve(entries.size());
  for (auto& e : entries) out.push_back(std::move(e.event));
  return out;
}

std::vector<ProfileEvent> Profiler::events_for(std::string_view entity) const {
  std::vector<ProfileEvent> out;
  for (auto& e : merged())
    if (e.event.entity == entity) out.push_back(std::move(e.event));
  return out;
}

std::optional<double> Profiler::time_of(std::string_view entity,
                                        std::string_view event) const {
  for (const auto& e : merged())
    if (e.event.entity == entity && e.event.event == event)
      return e.event.time;
  return std::nullopt;
}

std::map<std::string, double> phase_durations(
    std::span<const ProfileEvent> stream) {
  // Pair *_start with the next matching *_stop per entity.
  struct Open {
    double bootstrap = -1.0;
    double setup = -1.0;
    double exec = -1.0;
  };
  std::unordered_map<std::string, Open> open;
  std::map<std::string, double> out{
      {"bootstrap", 0.0}, {"exec_setup", 0.0}, {"running", 0.0}};
  for (const ProfileEvent& e : stream) {
    auto& o = open[e.entity];
    if (e.event == events::kBootstrapStart) {
      o.bootstrap = e.time;
    } else if (e.event == events::kBootstrapStop && o.bootstrap >= 0.0) {
      out["bootstrap"] += e.time - o.bootstrap;
      o.bootstrap = -1.0;
    } else if (e.event == events::kExecSetupStart) {
      o.setup = e.time;
    } else if (e.event == events::kExecStart) {
      if (o.setup >= 0.0) {
        out["exec_setup"] += e.time - o.setup;
        o.setup = -1.0;
      }
      o.exec = e.time;
    } else if (e.event == events::kExecStop && o.exec >= 0.0) {
      out["running"] += e.time - o.exec;
      o.exec = -1.0;
    }
  }
  return out;
}

std::size_t Profiler::size() const {
  std::size_t total = 0;
  std::lock_guard registry_lock(registry_mutex_);
  for (const auto& buf : buffers_) {
    std::lock_guard lock(buf->mutex);
    total += buf->entries.size();
  }
  return total;
}

void Profiler::preload(const std::vector<ProfileEvent>& events) {
  Buffer& buf = local_buffer();
  std::lock_guard lock(buf.mutex);
  for (const auto& e : events) {
    const std::uint64_t seq =
        next_seq_.fetch_add(1, std::memory_order_relaxed);
    buf.entries.push_back(Entry{seq, e});
  }
}

void Profiler::clear() {
  std::lock_guard registry_lock(registry_mutex_);
  for (const auto& buf : buffers_) {
    std::lock_guard lock(buf->mutex);
    buf->entries.clear();
  }
}

}  // namespace impress::hpc