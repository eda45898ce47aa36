/** @file Unit tests for util/json. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace otft::json {
namespace {

TEST(Json, ParsesScalars)
{
    EXPECT_TRUE(parse("null").isNull());
    EXPECT_TRUE(parse("true").asBool());
    EXPECT_FALSE(parse("false").asBool());
    EXPECT_DOUBLE_EQ(parse("42").asNumber(), 42.0);
    EXPECT_DOUBLE_EQ(parse("-1.5e3").asNumber(), -1500.0);
    EXPECT_EQ(parse("\"hi\"").asString(), "hi");
}

TEST(Json, ParsesNestedDocument)
{
    const Value v = parse(
        "{\"name\": \"suite\", \"reps\": 3, "
        "\"wall\": {\"median\": 0.25}, "
        "\"samples\": [0.2, 0.25, 0.3], \"ok\": true}");
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.string("name"), "suite");
    EXPECT_DOUBLE_EQ(v.number("reps"), 3.0);
    EXPECT_DOUBLE_EQ(v.at("wall").number("median"), 0.25);
    const auto &samples = v.at("samples").asArray();
    ASSERT_EQ(samples.size(), 3u);
    EXPECT_DOUBLE_EQ(samples[1].asNumber(), 0.25);
    EXPECT_TRUE(v.at("ok").asBool());
}

TEST(Json, StringEscapesRoundTrip)
{
    const Value v =
        parse("\"tab\\t quote\\\" back\\\\ newline\\n u\\u0041\"");
    EXPECT_EQ(v.asString(), "tab\t quote\" back\\ newline\n uA");
}

TEST(Json, EscapeProducesParseableStrings)
{
    const std::string raw = "a\"b\\c\nd\te";
    const Value v = parse("\"" + escape(raw) + "\"");
    EXPECT_EQ(v.asString(), raw);
}

TEST(Json, NumberRoundTripsEveryFiniteDouble)
{
    const double subnormal = std::numeric_limits<double>::denorm_min();
    EXPECT_EQ(number(subnormal), "4.9406564584124654e-324");
    EXPECT_EQ(parse(number(subnormal)).asNumber(), subnormal);
    EXPECT_EQ(number(0.1), "0.10000000000000001");
    EXPECT_EQ(parse(number(0.1)).asNumber(), 0.1);
    EXPECT_EQ(number(1e21), "1e+21");
    EXPECT_EQ(number(42.0), "42");

    // -0.0 keeps its sign through the round trip.
    EXPECT_EQ(number(-0.0), "-0");
    EXPECT_TRUE(std::signbit(parse(number(-0.0)).asNumber()));
}

TEST(Json, NumberWritesNonFiniteAsZero)
{
    EXPECT_EQ(number(std::numeric_limits<double>::quiet_NaN()), "0");
    EXPECT_EQ(number(std::numeric_limits<double>::infinity()), "0");
    EXPECT_EQ(number(-std::numeric_limits<double>::infinity()), "0");
}

TEST(Json, MissingMembersUseFallbacks)
{
    const Value v = parse("{\"x\": 1}");
    EXPECT_TRUE(v.has("x"));
    EXPECT_FALSE(v.has("y"));
    EXPECT_DOUBLE_EQ(v.number("y", -2.0), -2.0);
    EXPECT_EQ(v.string("y", "none"), "none");
    EXPECT_THROW(v.at("y"), FatalError);
}

TEST(Json, KindMismatchIsFatal)
{
    const Value v = parse("{\"x\": 1}");
    EXPECT_THROW(v.asNumber(), FatalError);
    EXPECT_THROW(v.at("x").asString(), FatalError);
}

TEST(Json, MalformedInputIsFatal)
{
    EXPECT_THROW(parse("{\"x\": }"), FatalError);
    EXPECT_THROW(parse("[1, 2"), FatalError);
    EXPECT_THROW(parse("tru"), FatalError);
    EXPECT_THROW(parse(""), FatalError);
    // The string overload rejects trailing garbage...
    EXPECT_THROW(parse("{} {}"), FatalError);
}

TEST(Json, StreamOverloadSupportsNdjson)
{
    // ...while the stream overload leaves it for the next call.
    std::istringstream is("{\"a\": 1}\n{\"a\": 2}\n");
    const Value first = parse(is);
    const Value second = parse(is);
    EXPECT_DOUBLE_EQ(first.number("a"), 1.0);
    EXPECT_DOUBLE_EQ(second.number("a"), 2.0);
}

/** Bitwise equality of doubles (tells -0.0 from 0.0). */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/** Deep equality of two documents, numbers compared bit for bit. */
bool
sameValue(const Value &a, const Value &b)
{
    if (a.kind() != b.kind())
        return false;
    switch (a.kind()) {
      case Kind::Null:
        return true;
      case Kind::Bool:
        return a.asBool() == b.asBool();
      case Kind::Number:
        return sameBits(a.asNumber(), b.asNumber());
      case Kind::String:
        return a.asString() == b.asString();
      case Kind::Array: {
        const auto &x = a.asArray();
        const auto &y = b.asArray();
        if (x.size() != y.size())
            return false;
        for (std::size_t i = 0; i < x.size(); ++i)
            if (!sameValue(x[i], y[i]))
                return false;
        return true;
      }
      case Kind::Object: {
        const auto &x = a.asObject();
        const auto &y = b.asObject();
        if (x.size() != y.size())
            return false;
        for (auto i = x.begin(), j = y.begin(); i != x.end(); ++i, ++j)
            if (i->first != j->first || !sameValue(i->second, j->second))
                return false;
        return true;
      }
    }
    return false;
}

/**
 * A complete-string parse through the stream overload: the document,
 * then nothing but whitespace.
 */
Value
parseViaStream(const std::string &text)
{
    std::istringstream is(text);
    Value v = parse(is);
    while (std::isspace(is.peek()))
        is.get();
    if (is.peek() >= 0)
        fatal("json: trailing content after document");
    return v;
}

/**
 * Parse `text` with the in-memory string overload and with the stream
 * overload. Both must accept or reject it alike, with the same error
 * and bit-identical values. Returns the string overload's document or
 * rethrows its error.
 */
Value
parseBoth(const std::string &text)
{
    std::optional<Value> from_string;
    std::optional<Value> from_stream;
    std::string string_error;
    std::string stream_error;
    try {
        from_string = parse(text);
    } catch (const FatalError &e) {
        string_error = e.what();
    }
    try {
        from_stream = parseViaStream(text);
    } catch (const FatalError &e) {
        stream_error = e.what();
    }
    EXPECT_EQ(string_error, stream_error) << "input: " << text;
    if (from_string && from_stream) {
        EXPECT_TRUE(sameValue(*from_string, *from_stream))
            << "input: " << text;
    }
    if (!from_string)
        throw FatalError(string_error);
    return *from_string;
}

/**
 * `text` parses, through both overloads, to exactly the double that
 * strtod reads from it.
 */
void
expectStrtodBits(const std::string &text)
{
    const double want = std::strtod(text.c_str(), nullptr);
    const Value got = parseBoth(text);
    ASSERT_TRUE(got.isNumber()) << text;
    EXPECT_TRUE(sameBits(got.asNumber(), want))
        << text << ": got " << got.asNumber() << ", strtod " << want;
}

TEST(Json, EdgeNumbersConvertExactly)
{
    for (const char *text :
         {"5e-324", "2.2250738585072014e-308", "2.2250738585072009e-308",
          "1.7976931348623157e308", "0.1", "-0.0", "0", "-0",
          "4.9406564584124654e-324", "2.4703282292062327e-324",
          "1.7976931348623158e308", "9007199254740993",
          "0.30000000000000004", "123456789012345678901234567890"}) {
        expectStrtodBits(text);
    }
    EXPECT_TRUE(std::signbit(parse("-0.0").asNumber()));
}

TEST(Json, OutOfRangeNumbersMatchStrtod)
{
    // Past the double range the result is strtod's: +-inf on
    // overflow, zero on underflow.
    EXPECT_EQ(parse("1e400").asNumber(), HUGE_VAL);
    EXPECT_EQ(parse("-1e400").asNumber(), -HUGE_VAL);
    const double tiny = parse("1e-400").asNumber();
    EXPECT_TRUE(sameBits(tiny, 0.0));
    const double neg_tiny = parse("-1e-400").asNumber();
    EXPECT_TRUE(sameBits(neg_tiny, -0.0));
    for (const char *text :
         {"1e400", "-1e400", "1e-400", "-1e-400", "2e-324",
          "1.8e308", "1e99999999999999999999"})
        expectStrtodBits(text);
}

TEST(Json, RandomBitPatternsConvertLikeStrtod)
{
    Rng rng(20261017);
    const char *formats[] = {"%.17g", "%.15g", "%.6g", "%.3e"};
    for (int rep = 0; rep < 4000; ++rep) {
        std::uint64_t bits = rng.next();
        if (rep % 8 == 0)
            bits &= 0x800fffffffffffffull; // subnormal
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof(v));
        if (!std::isfinite(v))
            continue;
        char buffer[40];
        std::snprintf(buffer, sizeof(buffer), formats[rep % 4], v);
        expectStrtodBits(buffer);
    }
}

// ---------------------------------------------------------------------
// Property / fuzz coverage: hostile input must always end in a clean
// FatalError, never a crash, hang, or silently wrong value. Every
// document goes through both parse overloads (parseBoth).
// ---------------------------------------------------------------------

TEST(JsonFuzz, NanAndInfinityLiteralsAreRejected)
{
    // JSON has no non-finite numbers; none of the spellings common in
    // other serializers may sneak through the stream extraction.
    for (const char *text :
         {"NaN", "nan", "-NaN", "Infinity", "-Infinity", "inf",
          "-inf", "1e", "0x10", "+5"}) {
        EXPECT_THROW(parseBoth(text), FatalError) << "input: " << text;
    }
}

TEST(JsonFuzz, MalformedDocumentsAreFatal)
{
    for (const char *text :
         {"{", "}", "[", "]", "{\"a\"}", "{\"a\":}", "{\"a\":1,}",
          "{\"a\" 1}", "{a: 1}", "[1,]", "[,1]", "[1 2]", "nul",
          "truth", "falsy", "\"open", "\"bad \\q escape\"",
          "\"bad \\u12g4 escape\"", "{\"a\": 1} extra", ",", ":",
          "--1", "1..2", "."}) {
        EXPECT_THROW(parseBoth(text), FatalError) << "input: " << text;
    }
}

TEST(JsonFuzz, NestingAtTheCapParsesAndBeyondIsFatal)
{
    const auto nested = [](int levels) {
        std::string text;
        for (int i = 0; i < levels; ++i)
            text += '[';
        for (int i = 0; i < levels; ++i)
            text += ']';
        return text;
    };

    const Value at_cap = parseBoth(nested(maxDepth));
    EXPECT_TRUE(at_cap.isArray());
    // One past the cap fails cleanly instead of overflowing the
    // parser's recursion.
    EXPECT_THROW(parseBoth(nested(maxDepth + 1)), FatalError);
    EXPECT_THROW(parseBoth(nested(maxDepth * 40)), FatalError);

    // Mixed object/array nesting counts against the same cap.
    std::string mixed;
    for (int i = 0; i < maxDepth; ++i)
        mixed += "{\"k\":[";
    EXPECT_THROW(parseBoth(mixed), FatalError);
}

TEST(JsonFuzz, EveryTruncationOfAValidDocumentIsFatal)
{
    const std::string doc =
        "{\"name\": \"x\", \"vals\": [1.5, -2e-3, true, null], "
        "\"sub\": {\"deep\": [[\"s\"]]}}";
    ASSERT_NO_THROW(parseBoth(doc));
    for (std::size_t len = 0; len < doc.size(); ++len) {
        EXPECT_THROW(parseBoth(doc.substr(0, len)), FatalError)
            << "prefix length " << len;
    }
}

/** Random JSON document text, bounded to `depth` container levels. */
std::string
randomDocument(Rng &rng, int depth)
{
    switch (depth > 0 ? rng.uniformInt(6) : rng.uniformInt(4)) {
      case 0:
        return "null";
      case 1:
        return rng.uniformInt(2) ? "true" : "false";
      case 2: {
        char buffer[40];
        std::snprintf(buffer, sizeof(buffer), "%.17g",
                      rng.uniform(-1e6, 1e6));
        return buffer;
      }
      case 3: {
        std::string raw;
        const std::uint64_t len = rng.uniformInt(8);
        for (std::uint64_t i = 0; i < len; ++i)
            raw.push_back(
                static_cast<char>(rng.uniformInt(95) + 32));
        return "\"" + escape(raw) + "\"";
      }
      case 4: {
        std::string out = "[";
        const std::uint64_t n = rng.uniformInt(4);
        for (std::uint64_t i = 0; i < n; ++i) {
            if (i)
                out += ",";
            out += randomDocument(rng, depth - 1);
        }
        return out + "]";
      }
      default: {
        std::string out = "{";
        const std::uint64_t n = rng.uniformInt(4);
        for (std::uint64_t i = 0; i < n; ++i) {
            if (i)
                out += ",";
            out += "\"k" + std::to_string(i) + "\":";
            out += randomDocument(rng, depth - 1);
        }
        return out + "}";
    }
    }
}

TEST(JsonFuzz, RandomDocumentsRoundTripAndMutantsNeverCrash)
{
    Rng rng(20260806);
    int parsed = 0;
    int rejected = 0;
    for (int rep = 0; rep < 300; ++rep) {
        const std::string doc = randomDocument(rng, 4);
        // The generator only emits valid JSON.
        ASSERT_NO_THROW(parseBoth(doc)) << doc;

        // Mutants must parse or fail cleanly — nothing else.
        std::string mutant = doc;
        const std::uint64_t edits = 1 + rng.uniformInt(3);
        for (std::uint64_t e = 0; e < edits && !mutant.empty(); ++e) {
            const auto pos = static_cast<std::size_t>(
                rng.uniformInt(mutant.size()));
            switch (rng.uniformInt(3)) {
              case 0: // flip a byte to a random printable char
                mutant[pos] =
                    static_cast<char>(rng.uniformInt(95) + 32);
                break;
              case 1: // delete a byte
                mutant.erase(pos, 1);
                break;
              default: // truncate
                mutant.resize(pos);
                break;
            }
        }
        try {
            (void)parseBoth(mutant);
            ++parsed;
        } catch (const FatalError &) {
            ++rejected;
        }
    }
    // Sanity on the corpus itself: mutation produced both outcomes.
    EXPECT_GT(parsed, 0);
    EXPECT_GT(rejected, 0);
}

} // namespace
} // namespace otft::json
