#include "obs/trace.hpp"

#include <algorithm>
#include <stdexcept>

namespace impress::obs {

namespace {

/// Per-thread ambient (tracer, parent) stack — see AmbientContext.
struct AmbientFrame {
  Tracer* tracer = nullptr;
  SpanId parent = 0;
};
thread_local std::vector<AmbientFrame> ambient_stack;  // NOLINT

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled) {}

SpanRecord* Tracer::find(SpanId id) {
  const auto it = std::lower_bound(
      spans_.begin(), spans_.end(), id,
      [](const SpanRecord& r, SpanId key) { return r.id < key; });
  return it != spans_.end() && it->id == id ? &*it : nullptr;
}

void Tracer::mark(double time, std::string_view entity, std::string_view event,
                  std::string_view info) {
  // Build the record (three string allocations) before taking the lock.
  Mark m{time, std::string(entity), std::string(event), std::string(info)};
  std::lock_guard lock(mutex_);
  marks_.push_back(std::move(m));
}

SpanId Tracer::begin(double time, std::string_view name,
                     std::string_view category, SpanId parent) {
  if (!enabled()) return 0;
  SpanRecord r;
  r.parent = parent;
  r.name = name;
  r.category = category;
  r.start = time;
  std::lock_guard lock(mutex_);
  const std::uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  r.id = seq;
  r.open_seq = seq;
  spans_.push_back(std::move(r));
  return seq;
}

void Tracer::end(SpanId id, double time) {
  if (!enabled() || id == 0) return;
  std::lock_guard lock(mutex_);
  const std::uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  SpanRecord* r = find(id);
  if (r != nullptr && r->close_seq == 0) {  // first close wins
    r->end = time;
    r->close_seq = seq;
  }
}

void Tracer::attr(SpanId id, std::string_view key, std::string_view value) {
  if (!enabled() || id == 0) return;
  std::pair<std::string, std::string> kv{key, value};
  std::lock_guard lock(mutex_);
  next_seq_.fetch_add(1, std::memory_order_relaxed);
  if (SpanRecord* r = find(id)) r->attrs.push_back(std::move(kv));
}

SpanId Tracer::instant(double time, std::string_view name,
                       std::string_view category, SpanId parent) {
  const SpanId id = begin(time, name, category, parent);
  end(id, time);
  return id;
}

void Tracer::preload(std::vector<Mark> marks, std::vector<SpanRecord> spans,
                     std::uint64_t next_seq) {
  if (enabled()) {
    for (std::size_t i = 0; i < spans.size(); ++i)
      if (spans[i].id >= next_seq || (i > 0 && spans[i].id <= spans[i - 1].id))
        throw std::invalid_argument(
            "Tracer::preload: span ids must be strictly increasing and "
            "below next_seq");
  }
  std::lock_guard lock(mutex_);
  marks_ = std::move(marks);
  if (!enabled()) return;
  spans_ = std::move(spans);
  next_seq_.store(next_seq, std::memory_order_relaxed);
}

std::vector<Mark> Tracer::marks() const {
  std::lock_guard lock(mutex_);
  return marks_;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

std::size_t Tracer::size() const {
  std::lock_guard lock(mutex_);
  return spans_.size();
}

void Tracer::clear() {
  std::lock_guard lock(mutex_);
  marks_.clear();
  spans_.clear();
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
