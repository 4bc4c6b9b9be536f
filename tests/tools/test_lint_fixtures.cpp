// Fixture suite for impress_lint v2: every rule must fire on its bad
// fixture and stay silent on the good twin. The linter runs as a child
// process — exactly as ctest/CI invoke it — so the exit code, the
// baseline-key format and the --explain output are all under test, not
// just the rule internals.
//
// IMPRESS_LINT_BIN and IMPRESS_LINT_FIXTURES are injected by CMake.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult run_lint(const std::string& args) {
  const std::string cmd = std::string(IMPRESS_LINT_BIN) + " " + args + " 2>&1";
  RunResult r;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[4096];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) r.output += buf;
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

std::string fixtures(const char* sub) {
  return std::string(IMPRESS_LINT_FIXTURES) + "/" + sub;
}

TEST(LintFixtures, EveryRuleFiresOnItsBadFixture) {
  const RunResult r = run_lint("--root " + fixtures("bad"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  const char* const expected_keys[] = {
      // v2 concurrency/determinism rules
      "bad/blocking_under_lock.cpp:blocking-under-lock:send",
      "bad/blocking_under_lock.cpp:blocking-under-lock:receive",
      "bad/blocking_under_lock.cpp:blocking-under-lock:wait_idle",
      "bad/blocking_under_lock.cpp:blocking-under-lock:sleep_for",
      "bad/blocking_under_lock.cpp:blocking-under-lock:join",
      "bad/manual_double_lock.cpp:manual-double-lock:lb",
      "bad/detached_thread.cpp:detached-thread:detach",
      "bad/unordered_iteration.cpp:unordered-iteration-in-serialization:"
      "counters_",
      "bad/unordered_iteration.cpp:unordered-iteration-in-serialization:"
      "live_ids",
      "bad/wall_clock.cpp:wall-clock-in-deterministic-path:srand",
      "bad/wall_clock.cpp:wall-clock-in-deterministic-path:rand",
      "bad/wall_clock.cpp:wall-clock-in-deterministic-path:system_clock",
      "bad/wall_clock.cpp:wall-clock-in-deterministic-path:random_device",
      // hot-path lookup keys (path suffix mpnn/mpnn.cpp is on the list)
      "bad/mpnn/mpnn.cpp:hot-string-key:to_string",
      // wire-format discipline (path suffix net/wire.cpp scopes the rule)
      "bad/net/wire.cpp:raw-struct-serialization:memcpy",
      "bad/net/wire.cpp:raw-struct-serialization:HelloMsg",
      // v1 parity pack
      "bad/legacy_rules.hpp:missing-pragma-once:header",
      "bad/legacy_rules.hpp:using-namespace:std",
      "bad/legacy_rules.hpp:naked-cv-wait:wait",
      "bad/legacy_rules.hpp:nodiscard-try:try_claim",
      "bad/legacy_rules.hpp:mutex-member-order:mutex_",
  };
  for (const char* key : expected_keys)
    EXPECT_NE(r.output.find(key), std::string::npos)
        << "missing key: " << key << "\n"
        << r.output;
}

TEST(LintFixtures, GoodTwinsStaySilent) {
  const RunResult r = run_lint("--root " + fixtures("good"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 new violation(s)"), std::string::npos)
      << r.output;
}

TEST(LintFixtures, ExplainPrintsOffendingSourceLines) {
  const RunResult plain = run_lint("--root " + fixtures("bad"));
  const RunResult explain = run_lint("--root " + fixtures("bad") + " --explain");
  // --explain adds "    > <source line>" under findings; the default
  // format (which scripts and the baseline workflow parse) is unchanged.
  EXPECT_EQ(plain.output.find("\n    > "), std::string::npos);
  EXPECT_NE(explain.output.find("\n    > "), std::string::npos);
  EXPECT_NE(explain.output.find("worker.detach();"), std::string::npos)
      << explain.output;
  // Keys are identical with and without --explain.
  EXPECT_NE(explain.output.find("key: bad/detached_thread.cpp:detached-"
                                "thread:detach"),
            std::string::npos);
}

TEST(LintFixtures, BaselineToleratesRecordedViolations) {
  const auto dir =
      std::filesystem::temp_directory_path() / "impress_lint_fixture_baseline";
  std::filesystem::create_directories(dir);
  const std::string baseline = (dir / "baseline.txt").string();

  const RunResult update = run_lint("--root " + fixtures("bad") +
                                    " --baseline " + baseline +
                                    " --update-baseline");
  EXPECT_EQ(update.exit_code, 0) << update.output;

  const RunResult tolerated =
      run_lint("--root " + fixtures("bad") + " --baseline " + baseline);
  EXPECT_EQ(tolerated.exit_code, 0) << tolerated.output;
  EXPECT_NE(tolerated.output.find("0 new violation(s)"), std::string::npos)
      << tolerated.output;

  std::filesystem::remove_all(dir);
}

}  // namespace
