// The strict wire codec (src/wire/): every token decoder reads back its
// writer's output exactly — u64 extremes, hex-float edge values bit for
// bit, JSON strings through json_escape — and rejects signs, blanks,
// uppercase, overflow and every proper prefix of a framed token. Also
// the shared CLI value parsers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "wire/cli.hpp"
#include "wire/lexer.hpp"

namespace hs::wire {
namespace {

constexpr double kMax = std::numeric_limits<double>::max();
constexpr double kInf = std::numeric_limits<double>::infinity();
/// The smallest subnormal.
constexpr double kTiny = std::numeric_limits<double>::denorm_min();

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// `"<json_escape(s)>"`, a JSON string token.
std::string json_token(std::string_view s) {
  std::string out = "\"";
  out += json_escape(s);
  out += '"';
  return out;
}

std::string hex_double_text(double v) {
  std::string out;
  append_hex_double(out, v);
  return out;
}

TEST(WireU64, RoundTripsExtremes) {
  for (const std::uint64_t v : {std::uint64_t{0}, UINT64_MAX}) {
    const std::string text = std::to_string(v);
    EXPECT_EQ(parse_u64(text), v);
    Lexer lx(text);
    EXPECT_EQ(lx.u64(), v);
    EXPECT_TRUE(lx.at_end());
  }
}

TEST(WireU64, AcceptsDigitsOnly) {
  for (const char* bad :
       {"", "-1", "+1", " 1", "1 ", "0x1", "1e3", "18446744073709551616",
        "99999999999999999999999"}) {
    EXPECT_FALSE(parse_u64(bad).has_value()) << "accepted '" << bad << "'";
  }
  EXPECT_THROW(Lexer("-1").u64(), Error);
  EXPECT_THROW(Lexer("18446744073709551616").u64(), Error);
}

TEST(WireHex, LowercaseDigitsOnly) {
  EXPECT_EQ(parse_hex("2ad6"), 0x2ad6u);
  EXPECT_EQ(parse_hex("ffffffffffffffff"), UINT64_MAX);
  for (const char* bad :
       {"", "2AD6", "2aD6", " 2ad", "+2ad", "-2ad", "0x2a", "2ad6 ", "g",
        "10000000000000000"}) {
    EXPECT_FALSE(parse_hex(bad).has_value()) << "accepted '" << bad << "'";
  }
}

TEST(WireHexDouble, EdgeValuesRoundTripBitExact) {
  const double values[] = {0.0,   -0.0,  kTiny, -kTiny, kMax, -kMax,
                           kInf,  -kInf, 1.0,   0.1,    -3.141592653589793};
  for (const double v : values) {
    const std::string text = hex_double_text(v);
    const auto got = parse_hex_double(text);
    ASSERT_TRUE(got.has_value()) << text;
    EXPECT_EQ(bits(*got), bits(v)) << text;
    Lexer lx(text);
    EXPECT_EQ(bits(lx.hex_double()), bits(v)) << text;
    EXPECT_TRUE(lx.at_end());
  }
  const auto nan = parse_hex_double(hex_double_text(std::nan("")));
  ASSERT_TRUE(nan.has_value());
  EXPECT_TRUE(std::isnan(*nan));
}

TEST(WireHexDouble, RandomBitPatternsRoundTrip) {
  std::mt19937_64 rng(0x5EED);
  for (int i = 0; i < 20000; ++i) {
    // Every fourth pattern is a subnormal (exponent bits cleared).
    const std::uint64_t b = rng() & (i % 4 == 0 ? ~(0x7ffull << 52) : ~0ull);
    double v = 0.0;
    std::memcpy(&v, &b, sizeof v);
    if (std::isnan(v)) continue;
    const auto got = parse_hex_double(hex_double_text(v));
    ASSERT_TRUE(got.has_value()) << hex_double_text(v);
    ASSERT_EQ(bits(*got), b) << hex_double_text(v);
  }
}

TEST(WireHexDouble, AcceptsTheC99SpellingOnly) {
  for (const char* bad :
       {"", "-", "1.5", "1", "0x", "0x1", "0x1p", "0x1p+", "0x1.p+0",
        "0x.8p+0", "+0x1p+0", " 0x1p+0", "0x1p+0 ", "0X1p+0", "0x1P+0",
        "0x1.8Ap+0", "--0x1p+0", "0x1p+0x", "infinity", "INF", "+inf", "Nan",
        "0x2p+0", "0x1.00000000000000p+0", "0x1p+1024", "0x1p-1075",
        "0x1p+99999"}) {
    EXPECT_FALSE(parse_hex_double(bad).has_value())
        << "accepted '" << bad << "'";
  }
  EXPECT_EQ(parse_hex_double("0x1.8p+1"), 3.0);
  EXPECT_EQ(parse_hex_double("-0x1p-1"), -0.5);
}

TEST(WireString, JsonEscapeRoundTrips) {
  std::string alphabet = "\n\r\t\"\\";
  for (char c = ' '; c <= '~'; ++c) alphabet += c;
  std::mt19937_64 rng(0xE5C);
  for (int i = 0; i < 2000; ++i) {
    std::string s(rng() % 40, ' ');
    for (char& c : s) c = alphabet[rng() % alphabet.size()];
    const std::string text = json_token(s);
    Lexer lx(text);
    ASSERT_EQ(lx.string(), s);
    ASSERT_TRUE(lx.at_end());
  }
  EXPECT_EQ(Lexer(R"("")").string(), "");
  for (const char* bad :
       {R"("\A")", R"("\/")", R"("\x41")", R"("\u0041")", R"("abc)", "'a'"}) {
    EXPECT_THROW(Lexer(bad).string(), Error) << "accepted " << bad;
  }
}

/// Every proper prefix of a token followed by the '}' a format would
/// expect next fails: a line cut anywhere never lexes as a shorter
/// valid one.
TEST(WireLexer, EveryProperPrefixOfAFramedTokenIsRejected) {
  enum Kind { kU64, kHexDouble, kString };
  const std::vector<std::pair<Kind, std::string>> tokens = {
      {kU64, "0"},
      {kU64, "18446744073709551615"},
      {kHexDouble, hex_double_text(-0.0)},
      {kHexDouble, hex_double_text(kMax)},
      {kHexDouble, hex_double_text(kTiny)},
      {kHexDouble, hex_double_text(-kInf)},
      {kString, json_token("a\"b\\c\nd")},
  };
  const auto lex = [](Kind kind, const std::string& text) {
    Lexer lx(text);
    switch (kind) {
      case kU64: lx.u64(); break;
      case kHexDouble: lx.hex_double(); break;
      case kString: lx.string(); break;
    }
    lx.expect("}");
    if (!lx.at_end()) lx.fail("trailing bytes");
  };
  for (const auto& [kind, token] : tokens) {
    const std::string framed = token + "}";
    EXPECT_NO_THROW(lex(kind, framed)) << framed;
    for (std::size_t len = 0; len < framed.size(); ++len) {
      EXPECT_THROW(lex(kind, framed.substr(0, len)), Error)
          << "prefix '" << framed.substr(0, len) << "' of " << framed;
    }
  }
}

TEST(WireLexer, BlanksAreSkippedOnlyWhenAsked) {
  Lexer tolerant(" { \"a\" :\t7 } ", Lexer::Blanks::kSkip);
  tolerant.expect("{");
  EXPECT_EQ(tolerant.string(), "a");
  tolerant.expect(":");
  EXPECT_EQ(tolerant.u64(), 7u);
  tolerant.expect("}");
  EXPECT_TRUE(tolerant.at_end());

  Lexer strict(" {");
  EXPECT_FALSE(strict.consume("{"));
  EXPECT_FALSE(strict.at_end());
  try {
    Lexer("{\"a\":x").expect("{\"a\":1");
    FAIL() << "mismatch accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.offset, 0u);
  }
}

TEST(WireCli, FlagValueForms) {
  char prog[] = "prog", seed[] = "--seed", five[] = "5", eq[] = "--seed=7",
       dash[] = "-1";
  char* argv[] = {prog, seed, five, eq, seed, dash};
  int i = 1;
  EXPECT_STREQ(flag_value(argv[1], "--seed", 6, argv, &i), "5");
  EXPECT_EQ(i, 2);
  i = 3;
  EXPECT_STREQ(flag_value(argv[3], "--seed", 6, argv, &i), "7");
  EXPECT_EQ(flag_value(argv[3], "--see", 6, argv, &i), nullptr);
  i = 4;
  EXPECT_EQ(flag_value(argv[4], "--seed", 6, argv, &i), nullptr);
  EXPECT_EQ(i, 4);
}

TEST(WireCli, NumericFlagsParseOrExit) {
  EXPECT_EQ(flag_u64("18446744073709551615", "--seed"), UINT64_MAX);
  EXPECT_EQ(flag_u32("4294967295", "--workers"), 4294967295u);
  EXPECT_EXIT(flag_u32("4294967296", "--workers"),
              ::testing::ExitedWithCode(1), "out of range for --workers");
  EXPECT_EXIT(flag_u64("-1", "--seed"), ::testing::ExitedWithCode(1),
              "invalid numeric value '-1' for --seed");
  EXPECT_EXIT(flag_u64("abc", "--trials"), ::testing::ExitedWithCode(1),
              "invalid numeric value");
}

}  // namespace
}  // namespace hs::wire
