// impress_lint rule set: the project invariants the scanner enforces.
//
// Legacy rules (v1, regex-era — keys unchanged so baselines survive):
//   naked-cv-wait        cv wait()/wait_for()/wait_until() need a predicate.
//   mutex-member-order   mutexes declared before the data they guard
//                        (now also recognises TrackedMutex /
//                        TrackedRecursiveMutex and brace-initialised
//                        members, which v1 skipped over).
//   missing-pragma-once  every header starts with #pragma once.
//   using-namespace      no using-namespace directives in headers.
//   nodiscard-try        try_* members carry [[nodiscard]].
//   hot-string-key       no temporary std::string keys in hot-path files.
//
// Concurrency/determinism rules (v2, token-walker era):
//   blocking-under-lock  Channel::send/receive, ThreadPool::wait_idle,
//                        TaskManager::wait_all, thread join and sleep_for
//                        must not run while a lock guard is active in the
//                        enclosing scope — that is a deadlock (or latency
//                        cliff) the runtime lockdep would report at run
//                        time; the linter reports it at review time.
//   manual-double-lock   two single-mutex guards opened back-to-back in
//                        one scope acquire in textual order; use
//                        std::scoped_lock / MultiGuard, which order by
//                        address and cannot ABBA.
//   detached-thread      thread.detach() escapes join discipline; nothing
//                        may outlive the session teardown.
//   unordered-iteration-in-serialization
//                        iterating an unordered container inside a
//                        checkpoint/serialize/export/dump function writes
//                        hash order into persisted artifacts and breaks
//                        bit-exact resume; iterate a sorted view instead.
//                        Member types resolve through the include graph.
//   wall-clock-in-deterministic-path
//                        system_clock / random_device / rand / srand /
//                        gettimeofday in library code breaks replayable
//                        sims; use the session clock and seeded RNGs.
//                        (steady_clock stays legal: it is the session's
//                        clock and never reaches persisted state.)
//   raw-struct-serialization
//                        net TUs must encode messages field by field
//                        through WireWriter/WireReader; memcpy with a
//                        sizeof-sized length and reinterpret_cast naming
//                        a *Msg type bake in-memory struct layout
//                        (padding, endianness) into the wire format.
//                        std::bit_cast of scalars and byte-pointer casts
//                        without a message type stay legal.
//
// Any rule can be silenced at a specific site with a trailing comment:
//   do_thing();  // lint:allow <rule-name> — reason
// The escape is per-line and per-rule; reviewers see the reason inline.

#pragma once

#include <string>
#include <vector>

#include "include_graph.hpp"

namespace lint {

struct Violation {
  std::string file;  ///< relative path
  std::size_t line = 0;
  std::string rule;
  std::string token;  ///< stable identifier for the baseline key
  std::string message;

  /// Baseline key — deliberately line-number-free so unrelated edits do
  /// not churn the baseline file.
  [[nodiscard]] std::string key() const {
    return file + ":" + rule + ":" + token;
  }
};

/// Run every applicable rule over every file in the graph, appending to
/// `out`. Sites carrying a `lint:allow <rule>` comment are skipped.
void run_rules(const IncludeGraph& graph, std::vector<Violation>& out);

}  // namespace lint
