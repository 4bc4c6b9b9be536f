// Tracer unit tests: lifecycle marks, span lifecycle, nesting, attributes,
// span numbering, checkpoint preload, the ambient context, thread-safety
// of the one record log, and the disabled / no-op span paths that back the
// zero-cost-when-off contract.

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/trace.hpp"

namespace impress::obs {
namespace {

TEST(Tracer, DisabledByDefaultAndRecordsNothing) {
  Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  const SpanId id = tracer.begin(0.0, "x", categories::kWork);
  EXPECT_EQ(id, 0u);
  tracer.end(id, 1.0);
  tracer.attr(id, "k", "v");
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(Tracer, RecordsOpenCloseWithAttrs) {
  Tracer tracer(true);
  const SpanId root = tracer.begin(1.0, "root", categories::kCampaign);
  ASSERT_NE(root, 0u);
  const SpanId child = tracer.begin(2.0, "child", categories::kTask, root);
  tracer.attr(child, "uid", "t.000001");
  tracer.end(child, 3.0);
  tracer.end(root, 4.0);

  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "root");
  EXPECT_EQ(spans[0].category, categories::kCampaign);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_DOUBLE_EQ(spans[0].start, 1.0);
  EXPECT_DOUBLE_EQ(spans[0].end, 4.0);
  EXPECT_TRUE(spans[0].closed());
  EXPECT_EQ(spans[1].name, "child");
  EXPECT_EQ(spans[1].parent, root);
  ASSERT_EQ(spans[1].attrs.size(), 1u);
  EXPECT_EQ(spans[1].attrs[0].first, "uid");
  EXPECT_EQ(spans[1].attrs[0].second, "t.000001");
  EXPECT_LT(spans[0].open_seq, spans[1].open_seq);
}

TEST(Tracer, UnclosedSpanIsVisibleAsUnclosed) {
  Tracer tracer(true);
  (void)tracer.begin(5.0, "open", categories::kPhase);
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_FALSE(spans[0].closed());
  EXPECT_EQ(spans[0].close_seq, 0u);
}

TEST(Tracer, DoubleCloseKeepsFirstEnd) {
  Tracer tracer(true);
  const SpanId id = tracer.begin(0.0, "x", categories::kWork);
  EXPECT_EQ(id, 1u);
  tracer.end(id, 1.0);
  tracer.end(id, 9.0);
  tracer.attr(99, "k", "v");  // never opened
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_DOUBLE_EQ(spans[0].end, 1.0);
  EXPECT_TRUE(spans[0].attrs.empty());
  // Every span call takes a number, the ignored second close and the attr
  // on an unknown id included, so later ids match the traced run's.
  EXPECT_EQ(spans[0].close_seq, 2u);
  EXPECT_EQ(tracer.next_seq(), 5u);
  EXPECT_EQ(tracer.begin(2.0, "y", categories::kWork), 5u);
}

TEST(Tracer, InstantIsZeroDuration) {
  Tracer tracer(true);
  const SpanId id = tracer.instant(7.0, "mark", categories::kDecision);
  ASSERT_NE(id, 0u);
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_DOUBLE_EQ(spans[0].start, 7.0);
  EXPECT_DOUBLE_EQ(spans[0].end, 7.0);
}

TEST(Tracer, ScopedSpanClosesOnDestruction) {
  Tracer tracer(true);
  double t = 10.0;
  tracer.set_clock([&t] { return t; });
  {
    ScopedSpan span(&tracer, "scoped", categories::kWork);
    span.attr("k", "v");
    t = 12.0;
  }
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_DOUBLE_EQ(spans[0].start, 10.0);
  EXPECT_DOUBLE_EQ(spans[0].end, 12.0);
}

TEST(Tracer, ScopedSpanMoveTransfersOwnership) {
  Tracer tracer(true);
  tracer.set_clock([] { return 0.0; });
  ScopedSpan outer;
  {
    ScopedSpan inner(&tracer, "moved", categories::kWork);
    outer = std::move(inner);
    EXPECT_EQ(inner.id(), 0u);  // NOLINT(bugprone-use-after-move)
  }
  // inner's destruction must not have closed the span.
  EXPECT_FALSE(tracer.spans()[0].closed());
  outer.close();
  EXPECT_TRUE(tracer.spans()[0].closed());
}

TEST(Tracer, ClearDropsEverything) {
  Tracer tracer(true);
  (void)tracer.begin(0.0, "x", categories::kWork);
  EXPECT_EQ(tracer.size(), 1u);
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_TRUE(tracer.spans().empty());

  // Preloaded records go too, not only the ones recorded live.
  Tracer restored(true);
  SpanRecord old;
  old.id = 1;
  old.name = "before.cut";
  old.open_seq = 1;
  restored.preload({Mark{1.0, "task.0", "submit", ""}}, {old}, 2);
  (void)restored.begin(2.0, "after.cut", categories::kWork);
  restored.mark(2.0, "task.0", "schedule");
  EXPECT_EQ(restored.size(), 2u);
  EXPECT_EQ(restored.marks().size(), 2u);
  restored.clear();
  EXPECT_EQ(restored.size(), 0u);
  EXPECT_TRUE(restored.spans().empty());
  EXPECT_TRUE(restored.marks().empty());
}

TEST(Tracer, MarksLeaveSpanIdsAlone) {
  // Marks have their own sequence counter: recording one never shifts a
  // span id, so traced outputs do not depend on how many marks there are.
  Tracer plain(true);
  Tracer marked(true);
  marked.mark(0.0, "task.0", "submit");
  const SpanId a = plain.begin(0.0, "x", categories::kWork);
  const SpanId b = marked.begin(0.0, "x", categories::kWork);
  EXPECT_EQ(a, b);
  EXPECT_EQ(marked.next_seq(), plain.next_seq());
  EXPECT_EQ(marked.size(), 1u);  // the mark is not a span
}

TEST(Tracer, PreloadedMarksComeFirst) {
  Tracer tracer;
  tracer.preload({Mark{1.0, "pilot.0", "bootstrap_start", ""}},
                 {SpanRecord{}}, 7);
  tracer.mark(2.0, "pilot.0", "bootstrap_stop");
  const auto marks = tracer.marks();
  ASSERT_EQ(marks.size(), 2u);
  EXPECT_EQ(marks[0].event, "bootstrap_start");
  EXPECT_EQ(marks[1].event, "bootstrap_stop");
  // Spans disabled: the preloaded spans and span numbering are ignored.
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_EQ(tracer.next_seq(), 1u);
}

TEST(Tracer, PreloadRejectsSpanIdsATracerCannotHaveRecorded) {
  // Preloaded spans come from a checkpoint file: ids out of order,
  // repeated, or at/after the restored next_seq are refused whole.
  const auto span = [](SpanId id) {
    SpanRecord r;
    r.id = id;
    r.open_seq = id;
    return r;
  };
  Tracer tracer(true);
  EXPECT_THROW(tracer.preload({}, {span(3), span(1)}, 6),
               std::invalid_argument);
  EXPECT_THROW(tracer.preload({}, {span(3), span(3)}, 6),
               std::invalid_argument);
  EXPECT_THROW(tracer.preload({}, {span(1), span(6)}, 6),
               std::invalid_argument);
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_EQ(tracer.next_seq(), 1u);

  // A valid trace: end()/attr() on a preloaded id update its record, and
  // numbering continues at next_seq.
  tracer.preload({}, {span(1), span(3)}, 6);
  tracer.attr(3, "k", "v");
  tracer.end(3, 4.0);
  EXPECT_EQ(tracer.begin(5.0, "after.cut", categories::kWork), 8u);
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[1].close_seq, 7u);
  EXPECT_DOUBLE_EQ(spans[1].end, 4.0);
  EXPECT_EQ(spans[1].attrs.size(), 1u);
  EXPECT_EQ(spans[2].id, 8u);
}

// Lifecycle marks are the runtime's profile (RADICAL-Pilot's profiler
// records): these pin record order, clear() and concurrent recording.
TEST(Profiler, RecordsInOrder) {
  Tracer tracer;  // spans disabled: marks are recorded regardless
  tracer.mark(1.0, "task.0", "submit", "fold");
  tracer.mark(2.0, "task.0", "schedule");
  const auto marks = tracer.marks();
  ASSERT_EQ(marks.size(), 2u);
  EXPECT_EQ(marks[0].event, "submit");
  EXPECT_EQ(marks[0].info, "fold");
  EXPECT_EQ(marks[1].event, "schedule");
  EXPECT_DOUBLE_EQ(marks[1].time, 2.0);
  EXPECT_EQ(marks[1].entity, "task.0");
}

TEST(Profiler, ClearEmpties) {
  Tracer tracer;
  tracer.mark(1.0, "a", "x");
  tracer.clear();
  EXPECT_TRUE(tracer.marks().empty());
}

TEST(Profiler, ThreadSafeRecording) {
  Tracer tracer;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&tracer, t] {
      for (int i = 0; i < 500; ++i)
        tracer.mark(i, "entity." + std::to_string(t), "event");
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(tracer.marks().size(), 2000u);
}

TEST(Tracer, ThreadsMergeIntoOneOrderedSnapshot) {
  Tracer tracer(true);
  constexpr int kThreads = 8;
  constexpr int kSpansPer = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&tracer, i] {
      for (int j = 0; j < kSpansPer; ++j) {
        const SpanId id = tracer.begin(
            0.0, "w" + std::to_string(i), categories::kWork);
        tracer.attr(id, "j", std::to_string(j));
        tracer.end(id, 1.0);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), static_cast<std::size_t>(kThreads * kSpansPer));
  for (std::size_t i = 1; i < spans.size(); ++i)
    EXPECT_LT(spans[i - 1].open_seq, spans[i].open_seq);
  for (const auto& s : spans) {
    EXPECT_TRUE(s.closed());
    EXPECT_EQ(s.attrs.size(), 1u);
  }
}

TEST(Ambient, InertWithoutContext) {
  EXPECT_EQ(ambient_tracer(), nullptr);
  EXPECT_EQ(ambient_parent(), 0u);
  ScopedSpan span = ambient_span("orphan");
  EXPECT_EQ(span.id(), 0u);  // no context, no span
}

TEST(Ambient, ChildSpansNestUnderInstalledContext) {
  Tracer tracer(true);
  tracer.set_clock([] { return 0.0; });
  const SpanId attempt = tracer.begin(0.0, "attempt.1", categories::kAttempt);
  {
    AmbientContext ctx(&tracer, attempt);
    EXPECT_EQ(ambient_tracer(), &tracer);
    EXPECT_EQ(ambient_parent(), attempt);
    ScopedSpan outer = ambient_span("outer");
    ASSERT_NE(outer.id(), 0u);
    {
      ScopedSpan inner = ambient_span("fold.predict");
      ASSERT_NE(inner.id(), 0u);
      // While `inner` lives, *it* is the ambient parent.
      EXPECT_EQ(ambient_parent(), inner.id());
    }
    EXPECT_EQ(ambient_parent(), outer.id());
  }
  EXPECT_EQ(ambient_tracer(), nullptr);

  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].parent, attempt);
  EXPECT_EQ(spans[2].name, "fold.predict");
  EXPECT_EQ(spans[2].parent, spans[1].id);
}

TEST(Ambient, DisabledTracerInstallsNothing) {
  Tracer tracer;  // disabled
  AmbientContext ctx(&tracer, 1);
  EXPECT_EQ(ambient_tracer(), nullptr);
  ScopedSpan span = ambient_span("x");
  EXPECT_EQ(span.id(), 0u);
}

TEST(Export, SpansRoundTripThroughJson) {
  Tracer tracer(true);
  const SpanId root = tracer.begin(1.5, "root", categories::kCampaign);
  const SpanId child = tracer.begin(2.0, "child", categories::kTask, root);
  tracer.attr(child, "outcome", "done");
  tracer.end(child, 2.5);
  tracer.end(root, 3.0);
  const auto spans = tracer.spans();

  const auto doc = common::Json::parse(spans_to_json(spans).dump());
  const auto back = spans_from_json(doc);
  ASSERT_EQ(back.size(), spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(back[i].id, spans[i].id);
    EXPECT_EQ(back[i].parent, spans[i].parent);
    EXPECT_EQ(back[i].name, spans[i].name);
    EXPECT_EQ(back[i].category, spans[i].category);
    EXPECT_DOUBLE_EQ(back[i].start, spans[i].start);
    EXPECT_DOUBLE_EQ(back[i].end, spans[i].end);
    EXPECT_EQ(back[i].attrs, spans[i].attrs);
  }
}

TEST(Export, ChromeTraceHasCompleteEventsAndTrackNames) {
  Tracer tracer(true);
  const SpanId root = tracer.begin(0.0, "campaign.T", categories::kCampaign);
  const SpanId pipe = tracer.begin(0.5, "P1", categories::kPipeline, root);
  const SpanId stage = tracer.begin(1.0, "stage.fold.c1", categories::kStage,
                                    pipe);
  tracer.end(stage, 2.0);
  tracer.end(pipe, 2.5);
  tracer.end(root, 3.0);

  const auto doc = chrome_trace(tracer.spans());
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 5u);  // 3 spans + 2 named tracks
  // The stage inherits the pipeline's track; the pipeline got a fresh one.
  double pipe_tid = -1.0;
  double stage_tid = -2.0;
  for (const auto& ev : events) {
    if (ev.at("name").as_string() == "P1" && ev.at("ph").as_string() == "X")
      pipe_tid = ev.at("tid").as_number();
    if (ev.at("name").as_string() == "stage.fold.c1")
      stage_tid = ev.at("tid").as_number();
  }
  EXPECT_EQ(pipe_tid, stage_tid);
  // ts/dur are microseconds.
  for (const auto& ev : events)
    if (ev.at("name").as_string() == "stage.fold.c1") {
      EXPECT_DOUBLE_EQ(ev.at("ts").as_number(), 1e6);
      EXPECT_DOUBLE_EQ(ev.at("dur").as_number(), 1e6);
    }
}

TEST(Export, PrometheusTextShapes) {
  MetricsSnapshot snap;
  snap.counters.push_back({"impress_tasks_done", 68});
  snap.gauges.push_back({"impress_tasks_outstanding", 0.0});
  snap.histograms.push_back(
      {"impress_task_run_seconds", {1.0, 10.0}, {3, 2, 1}, 6, 25.5});
  const std::string text = prometheus_text(snap);
  EXPECT_NE(text.find("# TYPE impress_tasks_done_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("impress_tasks_done_total 68\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE impress_tasks_outstanding gauge\n"),
            std::string::npos);
  // Cumulative buckets: 3, then 3+2, then +Inf = count.
  EXPECT_NE(text.find("impress_task_run_seconds_bucket{le=\"1\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("impress_task_run_seconds_bucket{le=\"10\"} 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("impress_task_run_seconds_bucket{le=\"+Inf\"} 6\n"),
            std::string::npos);
  EXPECT_NE(text.find("impress_task_run_seconds_sum 25.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("impress_task_run_seconds_count 6\n"),
            std::string::npos);
}

}  // namespace
}  // namespace impress::obs
