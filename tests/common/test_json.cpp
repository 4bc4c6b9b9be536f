#include "common/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace impress::common {
namespace {

TEST(Json, DefaultIsNull) {
  Json j;
  EXPECT_TRUE(j.is_null());
  EXPECT_EQ(j.dump(), "null");
}

TEST(Json, Scalars) {
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(-3.5).dump(), "-3.5");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
  EXPECT_EQ(Json(std::size_t{7}).dump(), "7");
}

TEST(Json, IntegralDoublesPrintWithoutDecimals) {
  EXPECT_EQ(Json(100.0).dump(), "100");
  EXPECT_EQ(Json(0.0).dump(), "0");
}

TEST(Json, NonFiniteBecomesNull) {
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(Json(std::nan("")).dump(), "null");
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(Json("a\"b\\c\nd\te").dump(), "\"a\\\"b\\\\c\\nd\\te\"");
  EXPECT_EQ(Json(std::string(1, '\x01')).dump(), "\"\\u0001\"");
}

TEST(Json, ArraysAndObjects) {
  Json j(Json::Array{Json(1), Json("two"), Json(nullptr)});
  EXPECT_EQ(j.dump(), "[1,\"two\",null]");
  Json obj(Json::Object{{"b", Json(2)}, {"a", Json(1)}});
  // std::map orders keys.
  EXPECT_EQ(obj.dump(), "{\"a\":1,\"b\":2}");
}

TEST(Json, EmptyContainers) {
  EXPECT_EQ(Json(Json::Array{}).dump(), "[]");
  EXPECT_EQ(Json(Json::Object{}).dump(), "{}");
}

TEST(Json, PrettyPrint) {
  Json obj(Json::Object{{"a", Json(Json::Array{Json(1), Json(2)})}});
  EXPECT_EQ(obj.dump(2), "{\n  \"a\": [\n    1,\n    2\n  ]\n}");
}

TEST(Json, ParseScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(Json::parse("3.25").as_number(), 3.25);
  EXPECT_DOUBLE_EQ(Json::parse("-2e3").as_number(), -2000.0);
  EXPECT_EQ(Json::parse("\"x\"").as_string(), "x");
}

TEST(Json, ParseNested) {
  const auto j = Json::parse(R"({"a": [1, {"b": "c"}], "d": null})");
  EXPECT_EQ(j.size(), 2u);
  EXPECT_DOUBLE_EQ(j.at("a").at(0).as_number(), 1.0);
  EXPECT_EQ(j.at("a").at(1).at("b").as_string(), "c");
  EXPECT_TRUE(j.at("d").is_null());
  EXPECT_TRUE(j.contains("a"));
  EXPECT_FALSE(j.contains("zzz"));
}

TEST(Json, ParseWhitespaceTolerant) {
  const auto j = Json::parse("  {\n\t\"a\" :\r [ ] }  ");
  EXPECT_TRUE(j.at("a").is_array());
}

TEST(Json, ParseStringEscapes) {
  EXPECT_EQ(Json::parse(R"("a\nb\t\"\\")").as_string(), "a\nb\t\"\\");
  EXPECT_EQ(Json::parse(R"("Aé")").as_string(), "A\xc3\xa9");
}

TEST(Json, ParseErrors) {
  EXPECT_THROW((void)Json::parse(""), std::invalid_argument);
  EXPECT_THROW((void)Json::parse("{"), std::invalid_argument);
  EXPECT_THROW((void)Json::parse("[1,]"), std::invalid_argument);
  EXPECT_THROW((void)Json::parse("tru"), std::invalid_argument);
  EXPECT_THROW((void)Json::parse("\"unterminated"), std::invalid_argument);
  EXPECT_THROW((void)Json::parse("1 2"), std::invalid_argument);  // trailing
  EXPECT_THROW((void)Json::parse("{\"a\" 1}"), std::invalid_argument);
  EXPECT_THROW((void)Json::parse("01x"), std::invalid_argument);
  // A repeated key would silently drop a value.
  EXPECT_THROW((void)Json::parse(R"({"a":1,"a":2})"), std::invalid_argument);
  EXPECT_THROW((void)Json::parse(R"({"o":{"k":1,"j":2,"k":3}})"),
               std::invalid_argument);
  try {
    (void)Json::parse(R"({"a":1, "a":2})");
    ADD_FAILURE() << "duplicate key accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("offset 8"), std::string::npos)
        << e.what();
  }
  EXPECT_NO_THROW((void)Json::parse(R"([{"a":1},{"a":2}])"));
}

TEST(Json, TypeMismatchThrows) {
  const Json j(42);
  EXPECT_THROW((void)j.as_string(), std::bad_variant_access);
  EXPECT_THROW((void)j.at("k"), std::bad_variant_access);
}

TEST(Json, RoundTripComplexDocument) {
  Json doc(Json::Object{
      {"name", Json("IM-RP")},
      {"values", Json(Json::Array{Json(1.5), Json(-0.25), Json(1e-9)})},
      {"nested", Json(Json::Object{{"flag", Json(true)},
                                   {"text", Json("line1\nline2")}})},
      {"empty_arr", Json(Json::Array{})},
      {"empty_obj", Json(Json::Object{})},
  });
  for (int indent : {0, 2, 4}) {
    const auto parsed = Json::parse(doc.dump(indent));
    EXPECT_EQ(parsed, doc) << "indent=" << indent;
  }
}

// Property fuzz: randomly generated documents round-trip through dump()
// and parse() at every indentation.
class JsonFuzz : public ::testing::TestWithParam<std::uint64_t> {};

namespace fuzz {

Json random_value(std::uint64_t& state, int depth) {
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::uint32_t>(state >> 33);
  };
  const auto kind = next() % (depth > 3 ? 4u : 6u);
  switch (kind) {
    case 0: return Json(nullptr);
    case 1: return Json(next() % 2 == 0);
    case 2:
      return Json((static_cast<double>(next()) - 2147483648.0) / 1024.0);
    case 3: {
      std::string s;
      const auto len = next() % 12;
      for (std::uint32_t i = 0; i < len; ++i)
        s.push_back(static_cast<char>(' ' + next() % 94));
      return Json(std::move(s));
    }
    case 4: {
      Json::Array a;
      const auto len = next() % 5;
      for (std::uint32_t i = 0; i < len; ++i)
        a.push_back(random_value(state, depth + 1));
      return Json(std::move(a));
    }
    default: {
      Json::Object o;
      const auto len = next() % 5;
      for (std::uint32_t i = 0; i < len; ++i)
        o.emplace("k" + std::to_string(next() % 100),
                  random_value(state, depth + 1));
      return Json(std::move(o));
    }
  }
}

}  // namespace fuzz

TEST_P(JsonFuzz, RoundTripAnyDocument) {
  std::uint64_t state = GetParam() * 0x9e3779b97f4a7c15ULL + 1;
  for (int i = 0; i < 30; ++i) {
    const Json doc = fuzz::random_value(state, 0);
    for (int indent : {0, 2}) {
      const Json back = Json::parse(doc.dump(indent));
      EXPECT_EQ(back, doc);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonFuzz, ::testing::Range<std::uint64_t>(1, 7));

// parse(dump(x)) must return x's exact bit pattern for every finite
// double — checkpoints (core/checkpoint.hpp) round rng offsets, clock
// values and metrics through JSON and rely on this for bit-exact resume.
void expect_number_round_trip(double x) {
  const Json back = Json::parse(Json(x).dump());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.as_number()),
            std::bit_cast<std::uint64_t>(x))
      << "value " << x << " dumped as " << Json(x).dump();
}

TEST(Json, NumberRoundTripNegativeZero) {
  expect_number_round_trip(-0.0);
  EXPECT_TRUE(std::signbit(Json::parse(Json(-0.0).dump()).as_number()));
}

TEST(Json, NumberRoundTripSubnormals) {
  expect_number_round_trip(std::numeric_limits<double>::denorm_min());
  expect_number_round_trip(-std::numeric_limits<double>::denorm_min());
  expect_number_round_trip(std::numeric_limits<double>::min() / 2.0);
  expect_number_round_trip(
      std::bit_cast<double>(std::uint64_t{0x000fffffffffffffULL}));
}

TEST(Json, NumberRoundTripExtremes) {
  expect_number_round_trip(std::numeric_limits<double>::max());
  expect_number_round_trip(std::numeric_limits<double>::min());
  expect_number_round_trip(std::numeric_limits<double>::epsilon());
  expect_number_round_trip(5e-324);
  expect_number_round_trip(0.1);
  expect_number_round_trip(1.0 / 3.0);
}

TEST(Json, NumberRoundTripIntegralStraddle1e15) {
  // The dumper switches between integer-style and %.17g style output
  // around the "integral double" boundary; both sides must survive.
  for (double x : {999999999999999.0, 1e15, 1e15 + 2.0, 9.007199254740992e15,
                   9.007199254740994e15, 1e16, 1.00000000000000016e15})
    expect_number_round_trip(x);
}

TEST(Json, NumberRoundTripRandomBitPatterns) {
  // Deterministic xorshift sweep over raw bit patterns, skipping
  // non-finite encodings (those intentionally dump as null).
  std::uint64_t state = 0x2545f4914f6cdd1dULL;
  int tested = 0;
  while (tested < 500) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    const double x = std::bit_cast<double>(state);
    if (!std::isfinite(x)) continue;
    expect_number_round_trip(x);
    ++tested;
  }
}

// The printf formatting documents were always written with; dump() must
// reproduce it byte for byte (reference kept here, not in the library).
std::string printf_number(double x) {
  char buf[64];
  if (x == std::floor(x) && std::fabs(x) < 1e15)
    std::snprintf(buf, sizeof buf, "%.0f", x);
  else
    std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

TEST(Json, NumberRoundTripDumpMatchesPrintf) {
  const double two53 = 9007199254740992.0;
  std::vector<double> values{0.0,
                             -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::min(),
                             std::numeric_limits<double>::max(),
                             -std::numeric_limits<double>::max(),
                             1e15 - 1.0,
                             1e15,
                             1e15 + 0.5,
                             -(1e15 - 1.0),
                             two53 - 1.0,
                             two53,
                             two53 + 1.0,  // rounds to 2^53
                             two53 + 2.0,
                             -1.0,
                             -42.0,
                             -999999999999999.0,
                             0.1,
                             -0.1,
                             0.5,
                             2.5,
                             1.0 / 3.0};
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int random = 0; random < 100'000;) {
    const double x = std::bit_cast<double>(next());
    if (!std::isfinite(x)) continue;
    values.push_back(x);
    ++random;
  }
  // Magnitudes campaigns actually write, on both sides of the integral
  // branch.
  for (int i = 0; i < 20'000; ++i) {
    const double u = static_cast<double>(next() >> 11) * 0x1p-53 * 400.0 - 200.0;
    values.push_back(u);
    values.push_back(std::round(u * 1e6));
  }
  std::size_t mismatches = 0;
  for (const double x : values) {
    const std::string got = Json(x).dump();
    if (got != printf_number(x) && ++mismatches <= 5)
      ADD_FAILURE() << "bits " << std::hex << std::bit_cast<std::uint64_t>(x)
                    << ": dump " << got << ", printf " << printf_number(x);
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(JsonWriter, KeysMustIncreaseWithinAnObject) {
  JsonWriter w;
  w.begin_object().key("b").value(1);
  EXPECT_THROW(w.key("b"), std::logic_error);  // equal
  EXPECT_THROW(w.key("a"), std::logic_error);  // smaller
  // "b" < "b_x" < "ba": byte order, as std::map sorts.
  w.key("b_x").begin_array();
  // Sibling objects each start their own key sequence.
  w.begin_object().key("k").value(true).end_object();
  w.begin_object().key("k").value(false).end_object();
  w.end_array();
  w.key("ba").begin_object().key("b").value(nullptr).end_object();
  w.end_object();
  EXPECT_EQ(w.take(),
            R"({"b":1,"b_x":[{"k":true},{"k":false}],"ba":{"b":null}})");
}

TEST(JsonWriter, MisuseThrows) {
  {
    JsonWriter w;
    EXPECT_THROW(w.key("a"), std::logic_error);  // not in an object
    w.begin_object();
    EXPECT_THROW(w.value(1), std::logic_error);  // member without a key
    EXPECT_THROW(w.end_array(), std::logic_error);
    w.key("a");
    EXPECT_THROW(w.key("b"), std::logic_error);  // key where a value goes
    EXPECT_THROW(w.end_object(), std::logic_error);
    EXPECT_THROW((void)w.take(), std::logic_error);  // still open
    w.value("x").end_object();
    EXPECT_THROW(w.value(2), std::logic_error);  // second top-level value
    EXPECT_EQ(w.take(), R"({"a":"x"})");
  }
  JsonWriter w;
  EXPECT_THROW((void)w.take(), std::logic_error);  // nothing written
  EXPECT_THROW(w.end_object(), std::logic_error);
}

TEST(JsonWriter, SpliceAppendsEarlierBytesAsValuesOrElements) {
  JsonWriter w;
  w.begin_object().key("a").splice(R"({"b":[1]})");
  w.key("c").begin_array().splice("1,2").value(3).splice("[4]").end_array();
  w.end_object();
  EXPECT_EQ(w.take(), R"({"a":{"b":[1]},"c":[1,2,3,[4]]})");
  // Indented: elements written at the same depth by an indent-2 writer.
  JsonWriter pretty(2);
  pretty.begin_array().splice("1,\n  2").value(3).end_array();
  EXPECT_EQ(pretty.take(), Json::parse("[1,2,3]").dump(2));
}

TEST(JsonWriter, SpliceMisuseThrowsLikeValue) {
  JsonWriter w;
  w.begin_object();
  EXPECT_THROW(w.splice("1"), std::logic_error);  // member without a key
  w.key("a");
  EXPECT_THROW(w.splice(""), std::logic_error);  // nothing to splice
  w.splice("1").end_object();
  EXPECT_THROW(w.splice("2"), std::logic_error);  // second top-level value
  EXPECT_EQ(w.take(), R"({"a":1})");
  JsonWriter top;
  top.splice("[1]");
  EXPECT_THROW(top.splice("[2]"), std::logic_error);
  EXPECT_EQ(top.take(), "[1]");
}

TEST(Json, EqualityIsDeep) {
  const auto a = Json::parse(R"({"x":[1,2,{"y":true}]})");
  const auto b = Json::parse(R"({ "x" : [ 1, 2, { "y" : true } ] })");
  EXPECT_EQ(a, b);
  const auto c = Json::parse(R"({"x":[1,2,{"y":false}]})");
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace impress::common
