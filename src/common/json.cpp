#include "common/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace impress::common {

namespace {

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

// std::to_chars with an explicit precision is specified to produce what
// printf does for the same conversion ("%.0f" / "%.17g"): documents are
// byte-identical to printf formatting (Json.NumberRoundTripDumpMatchesPrintf)
// at a fraction of its cost, with no locale or format string to parse.
void dump_number(double d, std::string& out) {
  if (!std::isfinite(d)) {
    out += "null";  // JSON has no inf/nan
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

class Parser {
 public:
  /// Maximum container nesting. parse_value recurses per level, so without
  /// a cap a short hostile input ("[[[[...") overflows the stack; 512
  /// matches common parsers and is far beyond any document we emit.
  static constexpr int kMaxDepth = 512;

  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    skip_ws();
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("json: " + what + " at offset " +
                                std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() const {
    if (pos_ >= text_.size())
      throw std::invalid_argument("json: unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json parse_value() {
    switch (peek()) {
      case '{': {
        if (++depth_ > kMaxDepth) fail("nesting too deep");
        Json v = parse_object();
        --depth_;
        return v;
      }
      case '[': {
        if (++depth_ > kMaxDepth) fail("nesting too deep");
        Json v = parse_array();
        --depth_;
        return v;
      }
      case '"': return Json(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Json(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Json(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Json(nullptr);
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json::Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(obj));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      obj.emplace(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Json(std::move(obj));
    }
  }

  Json parse_array() {
    expect('[');
    Json::Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(arr));
    }
    for (;;) {
      skip_ws();
      arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Json(std::move(arr));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("bad escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else fail("bad \\u digit");
            }
            // Encode the code point as UTF-8 (BMP only; surrogate pairs
            // are stored as-is, which round-trips our own output).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    double value = 0.0;
    const auto* first = text_.data() + start;
    const auto* last = text_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec == std::errc::result_out_of_range && ptr == last && first != last) {
      // from_chars reports ERANGE for subnormals (strtod-backed libstdc++
      // does, and glibc strtod sets ERANGE on any denormal result), which
      // would make us reject numbers our own dump() emits. Re-parse with
      // strtod and accept any finite result; true overflow stays an error.
      const std::string buf(first, last);
      char* end = nullptr;
      const double v = std::strtod(buf.c_str(), &end);
      if (end == buf.c_str() + buf.size() && std::isfinite(v))
        return Json(v);
      pos_ = start;
      fail("number out of range");
    }
    if (ec != std::errc{} || ptr != last || first == last) {
      pos_ = start;
      fail("bad number");
    }
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

void dump_impl(const Json& v, std::string& out, int indent, int depth);

void dump_container_sep(std::string& out, int indent, int depth) {
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
      dump_container_sep(out, indent, depth + 1);
      dump_impl(arr[i], out, indent, depth + 1);
    }
    dump_container_sep(out, indent, depth);
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
      dump_container_sep(out, indent, depth + 1);
      dump_string(key, out);
      out += indent > 0 ? ": " : ":";
      dump_impl(val, out, indent, depth + 1);
    }
    dump_container_sep(out, indent, depth);
    out += '}';
  }
}

}  // namespace

std::string Json::dump(int indent) const {
  std::string out;
  dump_impl(*this, out, indent, 0);
  return out;
}

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace impress::common
