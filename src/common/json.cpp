#include "common/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>

namespace impress::common {

namespace {

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
      const std::size_t key_pos = pos_;
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      const auto [it, inserted] = obj.try_emplace(std::move(key));
      if (!inserted) {
        pos_ = key_pos;
        fail("duplicate key \"" + it->first + "\"");
      }
      it->second = parse_value();
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

}  // namespace

std::string Json::dump(int indent) const {
  JsonWriter w(indent);
  w.value(*this);
  return w.take();
}

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

// --- JsonWriter ---

JsonWriter& JsonWriter::begin_object() { return open(true, '{'); }
JsonWriter& JsonWriter::end_object() { return close(true, '}'); }
JsonWriter& JsonWriter::begin_array() { return open(false, '['); }
JsonWriter& JsonWriter::end_array() { return close(false, ']'); }

JsonWriter& JsonWriter::key(std::string_view k) {
  if (depth_ == 0 || !frames_[depth_ - 1].object || key_pending_)
    throw std::logic_error("json writer: key outside an object member slot");
  Frame& f = frames_[depth_ - 1];
  if (!f.empty) {
    if (k <= std::string_view(f.last_key))
      throw std::logic_error("json writer: key \"" + std::string(k) +
                             "\" does not sort after \"" + f.last_key + "\"");
    out_ += ',';
  }
  f.empty = false;
  f.last_key.assign(k);
  newline(depth_);
  write_string(k);
  out_ += indent_ > 0 ? ": " : ":";
  key_pending_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double d) {
  before_value();
  write_number(d);
  return *this;
}

JsonWriter& JsonWriter::value(bool b) {
  before_value();
  out_ += b ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  before_value();
  write_string(s);
  return *this;
}

JsonWriter& JsonWriter::value(std::nullptr_t) {
  before_value();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::value(const Json& v) {
  if (v.is_null()) return value(nullptr);
  if (v.is_bool()) return value(v.as_bool());
  if (v.is_number()) return value(v.as_number());
  if (v.is_string()) return value(std::string_view(v.as_string()));
  if (v.is_array()) {
    begin_array();
    for (const Json& e : v.as_array()) value(e);
    return end_array();
  }
  begin_object();
  for (const auto& [k, e] : v.as_object()) key(k).value(e);
  return end_object();
}

JsonWriter& JsonWriter::splice(std::string_view json) {
  if (json.empty()) throw std::logic_error("json writer: empty splice");
  before_value();
  out_.append(json);
  return *this;
}

std::string JsonWriter::take() {
  if (out_.empty() || depth_ != 0 || key_pending_)
    throw std::logic_error("json writer: document is incomplete");
  std::string out = std::move(out_);
  out_.clear();
  return out;
}

// A value takes the slot a key opened, or the next element of an array
// (comma and line break before all but the first).
void JsonWriter::before_value() {
  if (depth_ == 0) {
    if (!out_.empty())
      throw std::logic_error("json writer: second top-level value");
    return;
  }
  Frame& f = frames_[depth_ - 1];
  if (f.object) {
    if (!key_pending_)
      throw std::logic_error("json writer: object member without a key");
    key_pending_ = false;
    return;
  }
  if (!f.empty) out_ += ',';
  f.empty = false;
  newline(depth_);
}

JsonWriter& JsonWriter::open(bool object, char bracket) {
  before_value();
  out_ += bracket;
  if (depth_ == frames_.size()) frames_.emplace_back();
  Frame& f = frames_[depth_++];
  f.object = object;
  f.empty = true;
  return *this;
}

JsonWriter& JsonWriter::close(bool object, char bracket) {
  if (depth_ == 0 || frames_[depth_ - 1].object != object || key_pending_)
    throw std::logic_error("json writer: unbalanced end of container");
  --depth_;
  if (!frames_[depth_].empty) newline(depth_);
  out_ += bracket;
  return *this;
}

void JsonWriter::newline(std::size_t depth) {
  if (indent_ <= 0) return;
  out_ += '\n';
  out_.append(static_cast<std::size_t>(indent_) * depth, ' ');
}

// Plain bytes are appended a run at a time; only quotes, backslashes and
// control characters are escaped (UTF-8 passes through).
void JsonWriter::write_string(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out_ += '"';
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out_.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      case '\b': out_ += "\\b"; break;
      case '\f': out_ += "\\f"; break;
      default: {
        const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out_.append(esc, sizeof esc);
      }
    }
  }
  out_.append(s.data() + run, s.size() - run);
  out_ += '"';
}

// std::to_chars is specified to print what printf prints for the same
// conversion: integral values below 1e15 go through the integer overload
// ("%.0f", with -0.0 kept as "-0"), everything else through "%.17g".
// Documents are byte-identical to printf formatting
// (Json.NumberRoundTripDumpMatchesPrintf) with no locale or format string
// to parse.
void JsonWriter::write_number(double d) {
  char buf[40];
  char* end = buf;
  if (std::fabs(d) < 1e15) {  // false for NaN and the infinities
    const auto n = static_cast<std::int64_t>(d);
    if (static_cast<double>(n) == d) {
      if (n == 0 && std::signbit(d)) *end++ = '-';
      end = std::to_chars(end, buf + sizeof buf, n).ptr;
      out_.append(buf, end);
      return;
    }
  } else if (!std::isfinite(d)) {
    out_ += "null";  // JSON has no inf/nan
    return;
  }
  end = std::to_chars(buf, buf + sizeof buf, d, std::chars_format::general, 17)
            .ptr;
  out_.append(buf, end);
}

}  // namespace impress::common
