#include "obs/trace.hpp"

#include <algorithm>
#include <unordered_map>

namespace impress::obs {

namespace {

/// Thread-local map from tracer id to that tracer's buffer for this
/// thread. Ids are process-unique and never reused, so a stale entry for a
/// destroyed tracer can never be matched (and its dangling pointer is
/// never dereferenced). The cache is bounded; eviction only costs a
/// re-registration (an extra buffer) if that tracer is used again from
/// this thread.
struct TlsEntry {
  std::uint64_t id = 0;
  void* buffer = nullptr;
};
constexpr std::size_t kTlsCacheCap = 64;
thread_local std::vector<TlsEntry> tls_buffers;  // NOLINT

std::uint64_t next_tracer_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// Per-thread ambient (tracer, parent) stack — see AmbientContext.
struct AmbientFrame {
  Tracer* tracer = nullptr;
  SpanId parent = 0;
};
thread_local std::vector<AmbientFrame> ambient_stack;  // NOLINT

}  // namespace

Tracer::Tracer(bool enabled) : id_(next_tracer_id()), enabled_(enabled) {}

Tracer::Buffer& Tracer::local_buffer() {
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

void Tracer::record(Event event) {
  Buffer& buf = local_buffer();
  std::lock_guard lock(buf.mutex);
  buf.events.push_back(std::move(event));
}

void Tracer::mark(double time, std::string_view entity, std::string_view event,
                  std::string_view info) {
  Buffer& buf = local_buffer();
  const std::uint64_t seq =
      next_mark_seq_.fetch_add(1, std::memory_order_relaxed);
  // Build the entry (three string allocations) before taking the lock:
  // the writer/reader critical section covers only the push itself.
  MarkEntry entry{seq, Mark{time, std::string(entity), std::string(event),
                            std::string(info)}};
  std::lock_guard lock(buf.mutex);
  buf.marks.push_back(std::move(entry));
}

SpanId Tracer::begin(double time, std::string_view name,
                     std::string_view category, SpanId parent) {
  if (!enabled()) return 0;
  const std::uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  record(Event{Kind::kOpen, seq, /*id=*/seq, parent, time, std::string(name),
               std::string(category)});
  return seq;
}

void Tracer::end(SpanId id, double time) {
  if (!enabled() || id == 0) return;
  const std::uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  record(Event{Kind::kClose, seq, id, /*parent=*/0, time, {}, {}});
}

void Tracer::attr(SpanId id, std::string_view key, std::string_view value) {
  if (!enabled() || id == 0) return;
  const std::uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  record(Event{Kind::kAttr, seq, id, /*parent=*/0, 0.0, std::string(key),
               std::string(value)});
}

SpanId Tracer::instant(double time, std::string_view name,
                       std::string_view category, SpanId parent) {
  const SpanId id = begin(time, name, category, parent);
  end(id, time);
  return id;
}

template <typename T>
std::vector<T> Tracer::merged(std::vector<T> Buffer::*items) const {
  std::vector<T> out;
  std::lock_guard registry_lock(registry_mutex_);
  for (const auto& buf : buffers_) {
    std::lock_guard lock(buf->mutex);
    const std::vector<T>& mine = (*buf).*items;
    out.insert(out.end(), mine.begin(), mine.end());
  }
  std::sort(out.begin(), out.end(),
            [](const T& a, const T& b) { return a.seq < b.seq; });
  return out;
}

void Tracer::preload(std::vector<Mark> marks, std::vector<SpanRecord> spans,
                     std::uint64_t next_seq) {
  std::lock_guard registry_lock(registry_mutex_);
  preloaded_marks_ = std::move(marks);
  if (!enabled()) return;
  preloaded_spans_ = std::move(spans);
  next_seq_.store(next_seq, std::memory_order_relaxed);
}

std::vector<Mark> Tracer::marks() const {
  std::vector<Mark> out;
  {
    std::lock_guard registry_lock(registry_mutex_);
    out = preloaded_marks_;
  }
  auto live = merged(&Buffer::marks);
  out.reserve(out.size() + live.size());
  for (auto& e : live) out.push_back(std::move(e.mark));
  return out;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::vector<SpanRecord> out;
  {
    std::lock_guard registry_lock(registry_mutex_);
    out = preloaded_spans_;
  }
  std::unordered_map<SpanId, std::size_t> index;  // span id -> out slot
  for (std::size_t i = 0; i < out.size(); ++i) index[out[i].id] = i;
  for (auto& e : merged(&Buffer::events)) {
    switch (e.kind) {
      case Kind::kOpen: {
        index[e.id] = out.size();
        SpanRecord r;
        r.id = e.id;
        r.parent = e.parent;
        r.name = std::move(e.name);
        r.category = std::move(e.category);
        r.start = e.time;
        r.open_seq = e.seq;
        out.push_back(std::move(r));
        break;
      }
      case Kind::kClose: {
        const auto it = index.find(e.id);
        if (it == index.end()) break;  // close without open: drop
        SpanRecord& r = out[it->second];
        if (r.close_seq == 0) {  // first close wins
          r.end = e.time;
          r.close_seq = e.seq;
        }
        break;
      }
      case Kind::kAttr: {
        const auto it = index.find(e.id);
        if (it == index.end()) break;
        out[it->second].attrs.emplace_back(std::move(e.name),
                                           std::move(e.category));
        break;
      }
    }
  }
  return out;  // already ordered by open_seq (merged() sorts by seq)
}

std::size_t Tracer::size() const {
  std::lock_guard registry_lock(registry_mutex_);
  std::size_t total = preloaded_spans_.size();
  for (const auto& buf : buffers_) {
    std::lock_guard lock(buf->mutex);
    for (const auto& e : buf->events)
      if (e.kind == Kind::kOpen) ++total;
  }
  return total;
}

void Tracer::clear() {
  std::lock_guard registry_lock(registry_mutex_);
  preloaded_marks_.clear();
  preloaded_spans_.clear();
  for (const auto& buf : buffers_) {
    std::lock_guard lock(buf->mutex);
    buf->events.clear();
    buf->marks.clear();
  }
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string_view name,
                       std::string_view category, SpanId parent) {
  if (tracer == nullptr || !tracer->enabled()) return;
  tracer_ = tracer;
  id_ = tracer->begin(tracer->now(), name, category, parent);
}

void ScopedSpan::close() {
  if (tracer_ == nullptr) return;
  if (ambient_ && !ambient_stack.empty() &&
      ambient_stack.back().tracer == tracer_ &&
      ambient_stack.back().parent == id_)
    ambient_stack.pop_back();
  if (id_ != 0) tracer_->end(id_, tracer_->now());
  tracer_ = nullptr;
  id_ = 0;
  ambient_ = false;
}

AmbientContext::AmbientContext(Tracer* tracer, SpanId parent) noexcept {
  if (tracer == nullptr || !tracer->enabled()) return;
  ambient_stack.push_back(AmbientFrame{tracer, parent});
  pushed_ = true;
}

AmbientContext::~AmbientContext() {
  if (pushed_ && !ambient_stack.empty()) ambient_stack.pop_back();
}

Tracer* ambient_tracer() noexcept {
  return ambient_stack.empty() ? nullptr : ambient_stack.back().tracer;
}

SpanId ambient_parent() noexcept {
  return ambient_stack.empty() ? 0 : ambient_stack.back().parent;
}

ScopedSpan ambient_span(std::string_view name, std::string_view category) {
  ScopedSpan span(ambient_tracer(), name, category, ambient_parent());
  if (span.id() != 0) {
    // While alive, this span is the ambient parent for nested calls.
    ambient_stack.push_back(AmbientFrame{span.tracer_, span.id()});
    span.ambient_ = true;
  }
  return span;
}

}  // namespace impress::obs
