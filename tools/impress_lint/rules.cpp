#include "rules.hpp"

#include <algorithm>
#include <cctype>
#include <optional>
#include <regex>
#include <sstream>

namespace lint {

namespace {

// --- shared helpers ---------------------------------------------------------

std::size_t line_of(const std::string& text, std::size_t pos) {
  return 1 + static_cast<std::size_t>(std::count(
                 text.begin(), text.begin() + static_cast<long>(pos), '\n'));
}

std::string to_lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

/// Append unless the raw source line carries `lint:allow <rule>`.
void emit(const SourceFile& file, Violation v, std::vector<Violation>& out) {
  if (v.line >= 1 && v.line <= file.lines.size()) {
    const std::string& raw_line = file.lines[v.line - 1];
    const std::size_t at = raw_line.find("lint:allow");
    if (at != std::string::npos &&
        raw_line.find(v.rule, at) != std::string::npos)
      return;
  }
  out.push_back(std::move(v));
}

// Count top-level arguments of a call whose '(' is at `open`. Returns
// nullopt if the parenthesis never closes (macro soup).
std::optional<int> count_call_args(const std::string& text, std::size_t open) {
  int depth = 0;
  int args = 0;
  bool saw_token = false;
  for (std::size_t i = open; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '(' || c == '[' || c == '{') {
      ++depth;
    } else if (c == ')' || c == ']' || c == '}') {
      --depth;
      if (depth == 0) return saw_token ? args + 1 : 0;
    } else if (c == ',' && depth == 1) {
      ++args;
    } else if (depth == 1 && !std::isspace(static_cast<unsigned char>(c))) {
      saw_token = true;
    }
  }
  return std::nullopt;
}

// Extract line `n` (1-based) from `text`.
std::string get_line(const std::string& text, std::size_t n) {
  std::istringstream in(text);
  std::string line;
  for (std::size_t i = 0; i < n && std::getline(in, line); ++i) {
  }
  return line;
}

// --- legacy rule: naked-cv-wait ---------------------------------------------

void check_naked_cv_wait(const SourceFile& f, std::vector<Violation>& out) {
  static const std::regex re(R"((\.|->)\s*(wait|wait_for|wait_until)\s*\()");
  for (auto it = std::sregex_iterator(f.code.begin(), f.code.end(), re);
       it != std::sregex_iterator(); ++it) {
    const std::string fn = (*it)[2].str();
    const std::size_t open = static_cast<std::size_t>(it->position()) +
                             static_cast<std::size_t>(it->length()) - 1;
    const auto args = count_call_args(f.code, open);
    if (!args) continue;
    // wait(lock, pred) is fine; wait(lock) is naked. wait_for/wait_until
    // need (lock, time, pred); two args means no predicate. Zero-arg
    // wait() is std::future / std::thread territory — not a cv.
    const bool naked = (fn == "wait" && *args == 1) ||
                       ((fn == "wait_for" || fn == "wait_until") && *args == 2);
    if (!naked) continue;
    emit(f,
         {f.rel, line_of(f.code, static_cast<std::size_t>(it->position())),
          "naked-cv-wait", fn,
          "condition-variable " + fn +
              " without predicate: spurious wakeups and lost "
              "notifications slip through; use the predicate overload"},
         out);
  }
}

// --- legacy rule pack: class-member scanner ---------------------------------
// mutex-member-order + nodiscard-try. Scope tracking over the stripped
// text; v2 additionally recognises TrackedMutex members and steps over
// brace initialisers (`TrackedMutex m_{"name"};`), which v1 mistook for
// scope openings and never inspected.

void check_class_members(const SourceFile& f, std::vector<Violation>& out) {
  const std::string& raw = f.raw;
  const std::string& code = f.code;
  enum class Scope { kClass, kOther };
  std::vector<Scope> scopes;
  std::string decl;  // accumulating declaration text at class depth
  std::vector<std::pair<std::string, std::string>> class_stack;  // name, first container member

  static const std::regex mutex_re(
      R"((^|[\s,])(mutable\s+)?(std::)?(recursive_)?(shared_|timed_)?mutex\s+(\w+))");
  static const std::regex tracked_re(
      R"((^|[\s,])(mutable\s+)?(\w+::)*Tracked(Recursive)?Mutex\s+(\w+))");
  static const std::regex container_re(
      R"((^|[\s,])(mutable\s+)?std::(vector|deque|queue|priority_queue|unordered_map|unordered_set|map|set|list)\s*<)");
  static const std::regex container_name_re(R"(>\s+(\w+)\s*(=[^;]*)?$)");
  static const std::regex try_decl_re(R"(\b(try_\w+)\s*\($)");

  auto flush_decl = [&](std::size_t pos) {
    if (scopes.empty() || scopes.back() != Scope::kClass) {
      decl.clear();
      return;
    }
    // Trim access specifiers off the front.
    static const std::regex access_re(R"(^\s*(public|private|protected)\s*:\s*)");
    std::string d = std::regex_replace(decl, access_re, "");
    decl.clear();

    std::smatch m;
    std::string mutex_name;
    if (std::regex_search(d, m, tracked_re))
      mutex_name = m[5].str();
    else if (std::regex_search(d, m, mutex_re))
      mutex_name = m[6].str();
    if (!mutex_name.empty()) {
      // Escape hatch: a declaration-line comment `guards <member>` names
      // what the mutex protects, which satisfies the rule's real goal
      // (readable lock discipline) even when unrelated containers precede
      // the mutex in the class layout.
      static const std::regex guards_re(R"(//.*\bguards\s+\w+)");
      const std::size_t ln = line_of(code, pos);
      if (std::regex_search(get_line(raw, ln), guards_re)) return;
      if (!class_stack.empty() && !class_stack.back().second.empty()) {
        emit(f,
             {f.rel, ln, "mutex-member-order", mutex_name,
              "mutex member '" + mutex_name + "' declared after data member '" +
                  class_stack.back().second +
                  "' it may guard; declare mutexes before the data "
                  "they protect"},
             out);
      }
      return;
    }
    // A data-member declaration (no parameter list ⇒ not a function).
    if (d.find('(') == std::string::npos && std::regex_search(d, m, container_re)) {
      std::smatch nm;
      std::string name = "<member>";
      if (std::regex_search(d, nm, container_name_re)) name = nm[1].str();
      if (!class_stack.empty() && class_stack.back().second.empty())
        class_stack.back().second = name;
      return;
    }
    // Member function declaration: enforce [[nodiscard]] on try_*.
    const std::size_t paren = d.find('(');
    if (paren != std::string::npos) {
      std::string head = d.substr(0, paren + 1);
      std::smatch tm;
      std::string head_trim = std::regex_replace(head, std::regex(R"(\s+)"), " ");
      if (std::regex_search(head_trim, tm, try_decl_re)) {
        const std::string fn = tm[1].str();
        const bool is_decl =
            head.find("return") == std::string::npos &&
            head.find('.') == std::string::npos &&
            head.find("->") == std::string::npos &&
            head.find('=') == std::string::npos &&
            head_trim.find(' ') != std::string::npos;  // has a return type
        if (is_decl && d.find("[[nodiscard]]") == std::string::npos) {
          emit(f,
               {f.rel, line_of(code, pos), "nodiscard-try", fn,
                "try_* API '" + fn +
                    "' reports success via its return value; mark it "
                    "[[nodiscard]] so callers cannot drop it"},
               out);
        }
      }
    }
  };

  static const std::regex class_re(R"(\b(class|struct)\s+(\w+)[^;=()]*$)");
  static const std::regex enum_re(R"(\benum\b)");

  std::string pending;  // text since last ; { } at any depth (for scope kind)
  for (std::size_t i = 0; i < code.size(); ++i) {
    const char c = code[i];
    if (c == '{') {
      std::smatch m;
      const bool is_class = std::regex_search(pending, m, class_re) &&
                            !std::regex_search(pending, enum_re);
      // Member brace initialiser (`TrackedMutex m_{"..."};`): no parameter
      // list, not a nested type — step over it so the declaration keeps
      // accumulating toward its ';' instead of opening a phantom scope.
      if (!is_class && !scopes.empty() && scopes.back() == Scope::kClass &&
          decl.find('(') == std::string::npos &&
          decl.find_first_not_of(" \t\n") != std::string::npos &&
          !std::regex_search(pending, enum_re)) {
        int depth = 0;
        std::size_t j = i;
        for (; j < code.size(); ++j) {
          if (code[j] == '{') ++depth;
          else if (code[j] == '}' && --depth == 0) break;
        }
        if (j < code.size()) {
          i = j;  // resume right after the initialiser
          continue;
        }
      }
      scopes.push_back(is_class ? Scope::kClass : Scope::kOther);
      if (is_class) class_stack.emplace_back(m[2].str(), "");
      pending.clear();
      decl.clear();
    } else if (c == '}') {
      if (!scopes.empty()) {
        if (scopes.back() == Scope::kClass && !class_stack.empty())
          class_stack.pop_back();
        scopes.pop_back();
      }
      pending.clear();
      decl.clear();
    } else if (c == ';') {
      flush_decl(i);
      pending.clear();
    } else {
      pending += c;
      if (!scopes.empty() && scopes.back() == Scope::kClass) decl += c;
    }
  }
}

// --- legacy rule: hot-string-key --------------------------------------------

bool ends_with_any(const std::string& rel,
                   const std::vector<std::string>& suffixes) {
  for (const auto& suffix : suffixes)
    if (rel.size() >= suffix.size() &&
        rel.compare(rel.size() - suffix.size(), suffix.size(), suffix) == 0)
      return true;
  return false;
}

// Files on the campaign's per-proposal / per-record hot paths, where a
// heap-allocating lookup key is a measured regression (see
// docs/performance.md). Kept as an explicit list: elsewhere readability
// wins and the rule stays silent. The mpnn entry is suffix-matched
// without the src/ prefix so the fixture twins exercise the rule too.
bool is_hot_path_file(const std::string& rel) {
  static const std::vector<std::string> hot = {
      "src/protein/landscape.cpp",  "src/protein/kernel_tables.cpp",
      "src/protein/sequence.cpp",   "mpnn/mpnn.cpp",
      "src/obs/trace.cpp",
      "src/core/crossover_generator.cpp",
  };
  return ends_with_any(rel, hot);
}

void check_hot_string_key(const SourceFile& f, std::vector<Violation>& out) {
  if (!is_hot_path_file(f.rel)) return;
  const std::string& code = f.code;
  // A freshly built string used directly as an associative-container key:
  // accessor call or subscript whose argument opens with std::to_string(
  // or std::string(. (String literals are already blanked out by the
  // preprocessing, so quoted keys cannot false-positive here.)
  static const std::regex accessor_re(
      R"((\.|->)(find|at|count|contains|erase)\s*\(\s*std::(to_string|string)\s*\()");
  static const std::regex subscript_re(R"(\[\s*std::(to_string|string)\s*\()");
  for (auto it = std::sregex_iterator(code.begin(), code.end(), accessor_re);
       it != std::sregex_iterator(); ++it)
    emit(f,
         {f.rel, line_of(code, static_cast<std::size_t>(it->position())),
          "hot-string-key", (*it)[3].str(),
          "hot-path map lookup builds a temporary std::" + (*it)[3].str() +
              " key; hoist the key out of the loop or switch to a "
              "numeric/content-addressed key"},
         out);
  for (auto it = std::sregex_iterator(code.begin(), code.end(), subscript_re);
       it != std::sregex_iterator(); ++it)
    emit(f,
         {f.rel, line_of(code, static_cast<std::size_t>(it->position())),
          "hot-string-key", (*it)[1].str(),
          "hot-path subscript builds a temporary std::" + (*it)[1].str() +
              " key; hoist the key out of the loop or switch to a "
              "numeric/content-addressed key"},
         out);
}

// --- legacy rule pack: header hygiene ---------------------------------------

void check_header_rules(const SourceFile& f, std::vector<Violation>& out) {
  if (!f.is_header) return;
  if (f.raw.find("#pragma once") == std::string::npos)
    emit(f,
         {f.rel, 1, "missing-pragma-once", "header",
          "header lacks #pragma once include guard"},
         out);
  static const std::regex using_ns(R"(\busing\s+namespace\s+([\w:]+))");
  for (auto it = std::sregex_iterator(f.code.begin(), f.code.end(), using_ns);
       it != std::sregex_iterator(); ++it) {
    emit(f,
         {f.rel, line_of(f.code, static_cast<std::size_t>(it->position())),
          "using-namespace", (*it)[1].str(),
          "'using namespace " + (*it)[1].str() +
              "' in a header leaks into every includer"},
         out);
  }
}

// --- v2 token-walker infrastructure -----------------------------------------

bool is_ident(const Token& t, const char* text) {
  return t.kind == Token::Kind::kIdent && t.text == text;
}

/// Skip a balanced token run starting at `i` (tokens[i] must be the
/// opener). Returns the index one past the matching closer, or
/// tokens.size() if unbalanced.
std::size_t skip_balanced(const std::vector<Token>& toks, std::size_t i,
                          const char* open, const char* close) {
  int depth = 0;
  for (; i < toks.size(); ++i) {
    if (toks[i].text == open)
      ++depth;
    else if (toks[i].text == close && --depth == 0)
      return i + 1;
  }
  return toks.size();
}

/// Lambda introducer at `i`? A '[' that is not a subscript (previous
/// token ends an expression) and not an attribute ('[[').
bool is_lambda_start(const std::vector<Token>& toks, std::size_t i) {
  if (toks[i].text != "[") return false;
  if (i + 1 < toks.size() && toks[i + 1].text == "[") return false;  // [[attr]]
  if (i == 0) return true;
  const Token& prev = toks[i - 1];
  if (prev.kind == Token::Kind::kIdent || prev.kind == Token::Kind::kNumber)
    return false;  // name[... — subscript
  if (prev.text == "]" || prev.text == ")") return false;  // a[i][j], f()[k]
  if (prev.text == "[") return false;  // second bracket of [[attr]]
  if (prev.text == "&") return false;  // auto& [a, b] — structured binding
  return true;
}

/// Given a lambda introducer at `i`, return the index one past the end of
/// the lambda's body (or past the capture/params if there is no body).
std::size_t skip_lambda(const std::vector<Token>& toks, std::size_t i) {
  std::size_t j = skip_balanced(toks, i, "[", "]");
  if (j < toks.size() && toks[j].text == "(")
    j = skip_balanced(toks, j, "(", ")");
  // Skip specifiers / trailing return type up to the body brace.
  while (j < toks.size() && toks[j].text != "{" && toks[j].text != ";" &&
         toks[j].text != ")" && toks[j].text != "," && toks[j].text != "(")
    ++j;
  if (j < toks.size() && toks[j].text == "{")
    j = skip_balanced(toks, j, "{", "}");
  return j;
}

// --- v2 rules: blocking-under-lock + manual-double-lock ---------------------
//
// One walk tracks RAII lock guards per scope. Lambda bodies are stepped
// over: they execute later (thread bodies, callbacks) or at least not
// provably under the guard, and skipping them only under-reports.

constexpr const char* kSingleGuards[] = {"lock_guard", "unique_lock",
                                         "shared_lock"};
constexpr const char* kMultiGuards[] = {"scoped_lock", "MultiGuard"};

bool in_list(const std::string& s, const char* const* list, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    if (s == list[i]) return true;
  return false;
}

// Calls that park the calling thread until *another* thread acts. A cv
// wait is exempt: it atomically releases the mutex it waits on (and the
// naked-cv-wait rule polices its shape separately).
bool is_blocking_callee(const std::string& s) {
  return s == "send" || s == "receive" || s == "receive_for" ||
         s == "wait_idle" || s == "wait_all" || s == "join" ||
         s == "sleep_for";
}

void check_guard_rules(const SourceFile& f, std::vector<Violation>& out) {
  struct Guard {
    std::string var;
    int depth;
    bool multi;   // scoped_lock / MultiGuard — address-ordered acquire
    bool active;  // false after var.unlock()
  };
  const auto& toks = f.tokens;
  std::vector<Guard> guards;
  int depth = 0;

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (is_lambda_start(toks, i)) {
      i = skip_lambda(toks, i) - 1;
      continue;
    }
    if (t.text == "{") {
      ++depth;
      continue;
    }
    if (t.text == "}") {
      while (!guards.empty() && guards.back().depth >= depth) guards.pop_back();
      --depth;
      continue;
    }
    if (t.kind != Token::Kind::kIdent) continue;

    const bool single = in_list(t.text, kSingleGuards, 3);
    const bool multi = in_list(t.text, kMultiGuards, 2);
    if (single || multi) {
      // `lock_guard<...> name(...)` / CTAD `scoped_lock name(a, b)` /
      // `MultiGuard name(a, b)`.
      std::size_t j = i + 1;
      if (j < toks.size() && toks[j].text == "<")
        j = skip_balanced(toks, j, "<", ">");
      if (j < toks.size() && toks[j].kind == Token::Kind::kIdent &&
          j + 1 < toks.size() &&
          (toks[j + 1].text == "(" || toks[j + 1].text == "{")) {
        const std::string var = toks[j].text;
        if (single) {
          for (const Guard& g : guards) {
            if (!g.active || g.depth != depth) continue;
            emit(f,
                 {f.rel, t.line, "manual-double-lock", var,
                  "second lock guard '" + var + "' opened while '" + g.var +
                      "' is held in the same scope; textual acquisition "
                      "order invites ABBA — use std::scoped_lock / "
                      "MultiGuard for an address-ordered multi-acquire"},
                 out);
            break;
          }
        }
        guards.push_back({var, depth, multi, true});
        i = j;  // resume at the variable name
        continue;
      }
    }

    // `guard.unlock()` releases; `guard.lock()` re-arms.
    if ((t.text == "unlock" || t.text == "lock") && i >= 2 &&
        (toks[i - 1].text == "." || toks[i - 1].text == "->") &&
        toks[i - 2].kind == Token::Kind::kIdent && i + 1 < toks.size() &&
        toks[i + 1].text == "(") {
      for (Guard& g : guards)
        if (g.var == toks[i - 2].text) g.active = (t.text == "lock");
      continue;
    }

    if (!is_blocking_callee(t.text)) continue;
    if (i + 1 >= toks.size() || toks[i + 1].text != "(") continue;
    const bool member_call =
        i >= 1 && (toks[i - 1].text == "." || toks[i - 1].text == "->");
    // sleep_for arrives as std::this_thread::sleep_for.
    const bool qualified_sleep =
        t.text == "sleep_for" && i >= 1 && toks[i - 1].text == "::";
    if (!member_call && !qualified_sleep) continue;

    for (const Guard& g : guards) {
      if (!g.active) continue;
      emit(f,
           {f.rel, t.line, "blocking-under-lock", t.text,
            "blocking call '" + t.text + "' while lock guard '" + g.var +
                "' is active: the held mutex stalls (or deadlocks) every "
                "contender; release the guard before blocking"},
           out);
      break;
    }
  }
}

// --- v2 rule: detached-thread -----------------------------------------------

void check_detached_thread(const SourceFile& f, std::vector<Violation>& out) {
  const auto& toks = f.tokens;
  for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i], "detach")) continue;
    if (toks[i - 1].text != "." && toks[i - 1].text != "->") continue;
    if (toks[i + 1].text != "(") continue;
    emit(f,
         {f.rel, toks[i].line, "detached-thread", "detach",
          "thread.detach() escapes join discipline; detached threads can "
          "outlive session teardown and touch freed state — keep the "
          "handle and join it"},
         out);
  }
}

// --- v2 rule: unordered-iteration-in-serialization --------------------------

bool is_keyword(const std::string& s) {
  static const char* const kw[] = {"if",    "for",   "while", "switch",
                                   "catch", "do",    "else",  "return",
                                   "new",   "delete"};
  for (const char* k : kw)
    if (s == k) return true;
  return false;
}

/// Name of the function whose body opens at toks[brace] ('{'), or "" when
/// the brace belongs to something else (namespace, class, control flow).
std::string enclosing_function_name(const std::vector<Token>& toks,
                                    std::size_t brace) {
  if (brace == 0) return "";
  std::size_t j = brace - 1;
  // Step back over trailing specifiers and return types: `const`,
  // `noexcept`, `override`, `-> T`.
  while (j > 0 && (toks[j].kind == Token::Kind::kIdent ||
                   toks[j].text == "->" || toks[j].text == "::" ||
                   toks[j].text == "&" || toks[j].text == "*" ||
                   toks[j].text == "<" || toks[j].text == ">" ||
                   toks[j].text == ","))
    --j;
  if (toks[j].text != ")") return "";
  // Match backwards to the opening '('.
  int depth = 0;
  while (true) {
    if (toks[j].text == ")") ++depth;
    else if (toks[j].text == "(" && --depth == 0) break;
    if (j == 0) return "";
    --j;
  }
  if (j == 0) return "";
  const Token& name = toks[j - 1];
  if (name.kind != Token::Kind::kIdent || is_keyword(name.text)) return "";
  return name.text;
}

bool serialization_function(const std::string& name) {
  static const char* const marks[] = {"checkpoint", "serialize", "to_json",
                                      "dump",       "save",      "export",
                                      "snapshot",   "write"};
  const std::string lower = to_lower(name);
  for (const char* m : marks)
    if (lower.find(m) != std::string::npos) return true;
  return false;
}

bool serialization_file(const std::string& rel) {
  static const char* const marks[] = {"session_dump", "checkpoint", "export",
                                      "persistence", "serialize"};
  for (const char* m : marks)
    if (rel.find(m) != std::string::npos) return true;
  return false;
}

void check_unordered_iteration(const SourceFile& f,
                               const std::map<std::string, std::string>& visible,
                               std::vector<Violation>& out) {
  const auto& toks = f.tokens;
  const bool whole_file = serialization_file(f.rel);
  // (depth, name) for every function body we are inside of.
  std::vector<std::pair<int, std::string>> fn_stack;
  int depth = 0;

  auto in_serial_context = [&]() {
    if (whole_file) return true;
    for (const auto& [d, name] : fn_stack)
      if (serialization_function(name)) return true;
    return false;
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.text == "{") {
      ++depth;
      const std::string name = enclosing_function_name(toks, i);
      if (!name.empty()) fn_stack.emplace_back(depth, name);
      continue;
    }
    if (t.text == "}") {
      if (!fn_stack.empty() && fn_stack.back().first == depth) fn_stack.pop_back();
      --depth;
      continue;
    }
    if (!is_ident(t, "for") || i + 1 >= toks.size() || toks[i + 1].text != "(")
      continue;
    if (!in_serial_context()) continue;
    // Range-for: find the ':' at parenthesis depth 1 (note "::" is a
    // single token, so a plain ":" here is unambiguous).
    const std::size_t close = skip_balanced(toks, i + 1, "(", ")");
    std::size_t colon = 0;
    int pd = 0;
    for (std::size_t j = i + 1; j < close; ++j) {
      if (toks[j].text == "(") ++pd;
      else if (toks[j].text == ")") --pd;
      else if (toks[j].text == ":" && pd == 1) {
        colon = j;
        break;
      }
    }
    if (colon == 0) continue;  // classic three-clause for
    // The range expression: last identifier names the container
    // (`spans_`, `state.track_name`, `this->m_`).
    std::string range_name;
    std::size_t range_line = t.line;
    for (std::size_t j = colon + 1; j + 1 < close; ++j)
      if (toks[j].kind == Token::Kind::kIdent) {
        range_name = toks[j].text;
        range_line = toks[j].line;
      }
    if (range_name.empty()) continue;
    const auto it = visible.find(range_name);
    if (it == visible.end()) continue;
    emit(f,
         {f.rel, range_line, "unordered-iteration-in-serialization", range_name,
          "iterating std::" + it->second + " '" + range_name +
              "' in a serialization path writes hash order into persisted "
              "output and breaks bit-exact resume; iterate a sorted view "
              "(or an ordered sibling container) instead"},
         out);
  }
}

// --- v2 rule: wall-clock-in-deterministic-path ------------------------------

void check_wall_clock(const SourceFile& f, std::vector<Violation>& out) {
  const auto& toks = f.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Token::Kind::kIdent) continue;
    const bool member_access =
        i >= 1 && (toks[i - 1].text == "." || toks[i - 1].text == "->");
    if (member_access) continue;  // project types may reuse these names
    const bool is_type_source = t.text == "system_clock" ||
                                t.text == "random_device" ||
                                t.text == "gettimeofday";
    const bool is_c_rng = t.text == "rand" || t.text == "srand";
    if (!is_type_source && !is_c_rng) continue;
    // rand/srand only as calls — `rand` is too common as a fragment of a
    // declared identifier to flag bare mentions (the tokenizer already
    // keeps `rand` distinct from `rand48`, but `gen.rand()` methods on
    // project RNGs are filtered by the member-access test above).
    if (is_c_rng && (i + 1 >= toks.size() || toks[i + 1].text != "("))
      continue;
    emit(f,
         {f.rel, t.line, "wall-clock-in-deterministic-path", t.text,
          "'" + t.text +
              "' is a nondeterministic source; campaigns must replay "
              "bit-exact from a seed and the session clock — use "
              "SimClock/steady_clock for time and the seeded RNG for "
              "randomness"},
         out);
  }
}

// --- v2 rule: raw-struct-serialization --------------------------------------
//
// Wire messages cross links through WireWriter/WireReader, field by
// field, because struct memory layout is not a wire format: padding,
// field order and endianness all vary by ABI, and a frame produced by
// memcpy'ing a struct is unparseable the moment either end is rebuilt.
// Two shapes are flagged in net TUs:
//   * memcpy with a sizeof-sized length — a struct-sized raw copy.
//     Explicit byte counts (header windows, payload spans) stay legal.
//   * reinterpret_cast naming a *Msg type — casting raw bytes to/from a
//     message struct on either the encode or decode side.
// std::bit_cast of scalars (the f64 <-> u64 bridge) and byte-pointer
// casts that never mention a message type are deliberately not flagged.

bool is_net_wire_file(const std::string& rel) {
  // Suffix-free prefix/infix match so the fixture twins
  // (bad/net/wire.cpp, good/net/wire.cpp) exercise the rule too.
  return rel.rfind("net/", 0) == 0 || rel.find("/net/") != std::string::npos;
}

bool names_message_type(const std::string& s) {
  return s.size() > 3 && s.compare(s.size() - 3, 3, "Msg") == 0;
}

void check_raw_struct_serialization(const SourceFile& f,
                                    std::vector<Violation>& out) {
  if (!is_net_wire_file(f.rel)) return;
  const auto& toks = f.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Token::Kind::kIdent) continue;
    if (t.text == "memcpy" && i + 1 < toks.size() && toks[i + 1].text == "(") {
      const std::size_t close = skip_balanced(toks, i + 1, "(", ")");
      bool struct_sized = false;
      for (std::size_t j = i + 2; j + 1 < close; ++j)
        if (is_ident(toks[j], "sizeof")) {
          struct_sized = true;
          break;
        }
      if (!struct_sized) continue;
      emit(f,
           {f.rel, t.line, "raw-struct-serialization", "memcpy",
            "memcpy with a sizeof-sized length dumps in-memory struct "
            "layout (padding, endianness) onto the wire; encode field by "
            "field through WireWriter/WireReader instead"},
           out);
      continue;
    }
    if (t.text == "reinterpret_cast" && i + 1 < toks.size() &&
        toks[i + 1].text == "<") {
      const std::size_t close = skip_balanced(toks, i + 1, "<", ">");
      for (std::size_t j = i + 2; j + 1 < close; ++j) {
        if (toks[j].kind == Token::Kind::kIdent &&
            names_message_type(toks[j].text)) {
          emit(f,
               {f.rel, toks[j].line, "raw-struct-serialization", toks[j].text,
                "reinterpret_cast involving message type '" + toks[j].text +
                    "' treats raw bytes as in-memory struct layout; decode "
                    "through WireReader field by field instead"},
               out);
          break;
        }
      }
    }
  }
}

}  // namespace

void run_rules(const IncludeGraph& graph, std::vector<Violation>& out) {
  const auto& files = graph.files();
  for (std::size_t i = 0; i < files.size(); ++i) {
    const SourceFile& f = files[i];
    check_naked_cv_wait(f, out);
    check_class_members(f, out);
    check_hot_string_key(f, out);
    check_header_rules(f, out);
    check_guard_rules(f, out);
    check_detached_thread(f, out);
    check_unordered_iteration(f, graph.visible_unordered(i), out);
    check_wall_clock(f, out);
    check_raw_struct_serialization(f, out);
  }
}

}  // namespace lint
