// Property/fuzz tests for common::Json: randomly generated documents must
// survive writer -> parser round trips bit-for-bit, and malformed or
// hostile input must raise std::invalid_argument — never crash, hang, or
// blow the stack (the parser caps container nesting at 512).

#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <random>
#include <string>

#include "common/json.hpp"

namespace impress::common {
namespace {

/// Random document generator. Numbers are restricted to values our writer
/// reproduces exactly (%.17g round-trips every finite double, but NaN/inf
/// dump as null, so only finite values are generated).
Json random_json(std::mt19937_64& rng, int depth) {
  const int kind = static_cast<int>(rng() % (depth > 0 ? 6 : 4));
  switch (kind) {
    case 0: return Json(nullptr);
    case 1: return Json(rng() % 2 == 0);
    case 2: {
      switch (rng() % 4) {
        case 0: return Json(static_cast<double>(rng() % 1'000'000));
        case 1: return Json(-static_cast<double>(rng() % 1'000'000));
        case 2:
          return Json(std::ldexp(static_cast<double>(rng() % (1u << 20)),
                                 static_cast<int>(rng() % 64) - 32));
        default: return Json(0.0);
      }
    }
    case 3: {
      // Strings exercising every escape class + UTF-8 passthrough.
      static const std::string alphabet =
          "ab\"\\\n\r\t\b\f/ \x01\x1f{}[]:,\xc3\xa9";
      std::string s;
      const std::size_t len = rng() % 12;
      for (std::size_t i = 0; i < len; ++i)
        s += alphabet[rng() % alphabet.size()];
      return Json(std::move(s));
    }
    case 4: {
      Json::Array arr;
      const std::size_t len = rng() % 5;
      for (std::size_t i = 0; i < len; ++i)
        arr.push_back(random_json(rng, depth - 1));
      return Json(std::move(arr));
    }
    default: {
      Json::Object obj;
      const std::size_t len = rng() % 5;
      for (std::size_t i = 0; i < len; ++i)
        obj.emplace("k" + std::to_string(rng() % 8),
                    random_json(rng, depth - 1));
      return Json(std::move(obj));
    }
  }
}

TEST(JsonFuzz, RandomDocumentsRoundTripCompact) {
  std::mt19937_64 rng(20260805);
  for (int i = 0; i < 300; ++i) {
    const Json doc = random_json(rng, 5);
    const Json back = Json::parse(doc.dump());
    EXPECT_EQ(back, doc) << doc.dump();
  }
}

TEST(JsonFuzz, RandomDocumentsRoundTripIndented) {
  std::mt19937_64 rng(99);
  for (int i = 0; i < 150; ++i) {
    const Json doc = random_json(rng, 4);
    EXPECT_EQ(Json::parse(doc.dump(2)), doc);
    EXPECT_EQ(Json::parse(doc.dump(7)), doc);
  }
}

// The tree formatter Json::dump used before JsonWriter, kept here as the
// reference the writer must reproduce byte for byte (compact and indented).
namespace reference {

void dump_string(const std::string& s, std::string& out) {
  out += '"';
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
}

void dump_number(double d, std::string& out) {
  if (!std::isfinite(d)) {
    out += "null";
    return;
  }
  char buf[40];
  const bool integral = d == std::floor(d) && std::fabs(d) < 1e15;
  const auto [end, ec] =
      integral ? std::to_chars(buf, buf + sizeof buf, d,
                               std::chars_format::fixed, 0)
               : std::to_chars(buf, buf + sizeof buf, d,
                               std::chars_format::general, 17);
  out.append(buf, end);
}

void container_sep(std::string& out, int indent, int depth) {
  if (indent > 0) {
    out += '\n';
    out.append(static_cast<std::size_t>(indent * depth), ' ');
  }
}

void dump_impl(const Json& v, std::string& out, int indent, int depth) {
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_number()) {
    dump_number(v.as_number(), out);
  } else if (v.is_string()) {
    dump_string(v.as_string(), out);
  } else if (v.is_array()) {
    const auto& arr = v.as_array();
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    for (std::size_t i = 0; i < arr.size(); ++i) {
      if (i) out += ',';
      container_sep(out, indent, depth + 1);
      dump_impl(arr[i], out, indent, depth + 1);
    }
    container_sep(out, indent, depth);
    out += ']';
  } else {
    const auto& obj = v.as_object();
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    bool first = true;
    for (const auto& [key, val] : obj) {
      if (!first) out += ',';
      first = false;
      container_sep(out, indent, depth + 1);
      dump_string(key, out);
      out += indent > 0 ? ": " : ":";
      dump_impl(val, out, indent, depth + 1);
    }
    container_sep(out, indent, depth);
    out += '}';
  }
}

std::string dump(const Json& v, int indent) {
  std::string out;
  dump_impl(v, out, indent, 0);
  return out;
}

}  // namespace reference

TEST(JsonFuzz, DumpMatchesReferenceFormatter) {
  std::mt19937_64 rng(17);
  for (int i = 0; i < 300; ++i) {
    const Json doc = random_json(rng, 5);
    EXPECT_EQ(doc.dump(), reference::dump(doc, 0));
    EXPECT_EQ(doc.dump(2), reference::dump(doc, 2));
  }
}

TEST(JsonFuzz, MalformedInputsThrowInsteadOfCrashing) {
  const char* cases[] = {
      "",          "   ",        "{",          "[",           "\"",
      "{]",        "[}",         "tru",        "falsey",      "nul",
      "01x",       "-",          "+1",         "1.2.3",       "\"\\q\"",
      "\"\\u12\"", "\"\\u12zx\"", "{\"a\"}",   "{\"a\":}",    "{\"a\":1,}",
      "[1,]",      "[1 2]",      "{1:2}",      "\"unterminated",
      "[1],",      "42 43",      "{\"a\":1}}", "\x80\x80",    "nan",
      "inf",       "--3",        "1e",         "[,1]",        "{,}",
  };
  for (const char* text : cases)
    EXPECT_THROW((void)Json::parse(text), std::invalid_argument) << text;
}

TEST(JsonFuzz, HostileNestingErrorsInsteadOfOverflowingTheStack) {
  // 200k opening brackets previously recursed 200k frames deep.
  const std::string bombs[] = {
      std::string(200'000, '['),
      std::string(200'000, '[') + "1" + std::string(200'000, ']'),
      [] {
        std::string s;
        for (int i = 0; i < 200'000; ++i) s += "{\"a\":";
        return s;
      }(),
  };
  for (const auto& bomb : bombs)
    EXPECT_THROW((void)Json::parse(bomb), std::invalid_argument);
}

TEST(JsonFuzz, NestingJustBelowTheCapStillParses) {
  constexpr int kDepth = 500;  // cap is 512
  std::string text = std::string(kDepth, '[') + "7" +
                     std::string(kDepth, ']');
  const Json doc = Json::parse(text);
  const Json* v = &doc;
  for (int i = 0; i < kDepth; ++i) {
    ASSERT_TRUE(v->is_array());
    ASSERT_EQ(v->size(), 1u);
    v = &v->as_array()[0];
  }
  EXPECT_DOUBLE_EQ(v->as_number(), 7.0);
  // ...and its dump round-trips through the same cap.
  EXPECT_EQ(Json::parse(doc.dump()), doc);
}

TEST(JsonFuzz, RandomByteNoiseNeverCrashesTheParser) {
  std::mt19937_64 rng(7);
  for (int i = 0; i < 500; ++i) {
    std::string noise;
    const std::size_t len = rng() % 64;
    for (std::size_t j = 0; j < len; ++j)
      noise += static_cast<char>(rng() % 256);
    try {
      (void)Json::parse(noise);  // parsing may legitimately succeed
    } catch (const std::invalid_argument&) {
      // expected for most inputs
    }
  }
}

TEST(JsonFuzz, TruncationsOfAValidDocumentAllThrow) {
  const std::string valid =
      R"({"name":"x","vals":[1,2.5,-3e4,true,null],"nested":{"s":"\u00e9"}})";
  ASSERT_NO_THROW((void)Json::parse(valid));
  for (std::size_t cut = 0; cut < valid.size(); ++cut)
    EXPECT_THROW((void)Json::parse(valid.substr(0, cut)),
                 std::invalid_argument)
        << "prefix length " << cut;
}

}  // namespace
}  // namespace impress::common
