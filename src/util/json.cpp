#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <istream>

#include "util/logging.hpp"

namespace otft::json {

const char *
toString(Kind kind)
{
    switch (kind) {
      case Kind::Null:
        return "null";
      case Kind::Bool:
        return "bool";
      case Kind::Number:
        return "number";
      case Kind::String:
        return "string";
      case Kind::Array:
        return "array";
      case Kind::Object:
        return "object";
    }
    return "?";
}

namespace {

[[noreturn]] void
kindError(const char *wanted, Kind got)
{
    fatal("json: expected a ", wanted, ", value is ", toString(got));
}

} // namespace

bool
Value::asBool() const
{
    if (kind_ != Kind::Bool)
        kindError("bool", kind_);
    return bool_;
}

double
Value::asNumber() const
{
    if (kind_ != Kind::Number)
        kindError("number", kind_);
    return number_;
}

const std::string &
Value::asString() const
{
    if (kind_ != Kind::String)
        kindError("string", kind_);
    return string_;
}

const std::vector<Value> &
Value::asArray() const
{
    if (kind_ != Kind::Array)
        kindError("array", kind_);
    return array_;
}

const std::map<std::string, Value> &
Value::asObject() const
{
    if (kind_ != Kind::Object)
        kindError("object", kind_);
    return object_;
}

bool
Value::has(const std::string &key) const
{
    return kind_ == Kind::Object &&
           object_.find(key) != object_.end();
}

const Value &
Value::at(const std::string &key) const
{
    const auto &members = asObject();
    auto it = members.find(key);
    if (it == members.end())
        fatal("json: missing member '", key, "'");
    return it->second;
}

double
Value::number(const std::string &key, double fallback) const
{
    return has(key) ? at(key).asNumber() : fallback;
}

std::string
Value::string(const std::string &key, const std::string &fallback) const
{
    return has(key) ? at(key).asString() : fallback;
}

Value
Value::makeNull()
{
    return Value();
}

Value
Value::makeBool(bool b)
{
    Value v;
    v.kind_ = Kind::Bool;
    v.bool_ = b;
    return v;
}

Value
Value::makeNumber(double n)
{
    Value v;
    v.kind_ = Kind::Number;
    v.number_ = n;
    return v;
}

Value
Value::makeString(std::string s)
{
    Value v;
    v.kind_ = Kind::String;
    v.string_ = std::move(s);
    return v;
}

Value
Value::makeArray(std::vector<Value> items)
{
    Value v;
    v.kind_ = Kind::Array;
    v.array_ = std::move(items);
    return v;
}

Value
Value::makeObject(std::map<std::string, Value> members)
{
    Value v;
    v.kind_ = Kind::Object;
    v.object_ = std::move(members);
    return v;
}

namespace {

/**
 * Character source over a stream. peek()/get() return the next byte
 * as an unsigned char value, or a negative value at the end.
 */
struct StreamSource
{
    std::istream &stream;

    int peek() { return stream.peek(); }
    int get() { return stream.get(); }
};

/** Character source over an in-memory buffer, same contract. */
struct BufferSource
{
    const char *pos;
    const char *end;

    int
    peek() const
    {
        return pos < end ? static_cast<unsigned char>(*pos) : -1;
    }

    int
    get()
    {
        return pos < end ? static_cast<unsigned char>(*pos++) : -1;
    }
};

/**
 * The double a grammar-checked JSON number token spells. from_chars
 * and strtod both round correctly, so they agree wherever from_chars
 * succeeds, and from_chars is several times faster. Past the double
 * range from_chars reports result_out_of_range and leaves the value
 * alone, while strtod returns +-inf or 0, so strtod decides those.
 */
double
toDouble(const std::string &token)
{
    const char *end = token.data() + token.size();
    double v = 0.0;
    const auto [stop, ec] = std::from_chars(token.data(), end, v);
    if (ec == std::errc() && stop == end)
        return v;
    return std::strtod(token.c_str(), nullptr);
}

template <typename Source>
struct Parser
{
    explicit Parser(Source source) : is(source) {}

    Source is;
    /** Current container nesting depth (recursion guard). */
    int depth = 0;
    /** The number being scanned (reused to spare an allocation each). */
    std::string token;

    void
    skipWs()
    {
        while (std::isspace(is.peek()))
            is.get();
    }

    int
    peek()
    {
        skipWs();
        return is.peek();
    }

    void
    expect(char c)
    {
        skipWs();
        const int got = is.get();
        if (got != c)
            fatal("json: expected '", c, "', got ",
                  got < 0 ? std::string("EOF")
                          : std::string(1, static_cast<char>(got)));
    }

    void
    expectWord(const char *word)
    {
        for (const char *p = word; *p; ++p)
            if (is.get() != *p)
                fatal("json: bad literal (expected '", word, "')");
    }

    std::string
    parseString()
    {
        expect('"');
        std::string s;
        while (true) {
            const int c = is.get();
            if (c < 0)
                fatal("json: unterminated string");
            if (c == '"')
                return s;
            if (c != '\\') {
                s.push_back(static_cast<char>(c));
                continue;
            }
            const int esc = is.get();
            switch (esc) {
              case '"':
              case '\\':
              case '/':
                s.push_back(static_cast<char>(esc));
                break;
              case 'n':
                s.push_back('\n');
                break;
              case 't':
                s.push_back('\t');
                break;
              case 'r':
                s.push_back('\r');
                break;
              case 'b':
                s.push_back('\b');
                break;
              case 'f':
                s.push_back('\f');
                break;
              case 'u': {
                // Decode \uXXXX; non-ASCII code points are emitted as
                // UTF-8 (surrogate pairs are not recombined — the
                // documents this reader consumes are ASCII).
                int code = 0;
                for (int k = 0; k < 4; ++k) {
                    const int h = is.get();
                    if (!std::isxdigit(h))
                        fatal("json: bad \\u escape");
                    code = code * 16 +
                           (std::isdigit(h)
                                ? h - '0'
                                : std::tolower(h) - 'a' + 10);
                }
                if (code < 0x80) {
                    s.push_back(static_cast<char>(code));
                } else if (code < 0x800) {
                    s.push_back(
                        static_cast<char>(0xC0 | (code >> 6)));
                    s.push_back(
                        static_cast<char>(0x80 | (code & 0x3F)));
                } else {
                    s.push_back(
                        static_cast<char>(0xE0 | (code >> 12)));
                    s.push_back(static_cast<char>(
                        0x80 | ((code >> 6) & 0x3F)));
                    s.push_back(
                        static_cast<char>(0x80 | (code & 0x3F)));
                }
                break;
              }
              default:
                fatal("json: unknown escape '\\",
                      std::string(1, static_cast<char>(esc)), "'");
            }
        }
    }

    /**
     * Strict JSON number grammar: -?int(.frac)?([eE][+-]?digits)?.
     * Stream double extraction is looser (it takes "+5", hex floats,
     * and the platform's inf/nan spellings), and JSON has none of
     * those — notably no non-finite numbers.
     */
    Value
    parseNumber()
    {
        token.clear();
        if (is.peek() == '-')
            token += static_cast<char>(is.get());
        if (!std::isdigit(is.peek()))
            fatal("json: bad number");
        while (std::isdigit(is.peek()))
            token += static_cast<char>(is.get());
        if (is.peek() == '.') {
            token += static_cast<char>(is.get());
            if (!std::isdigit(is.peek()))
                fatal("json: bad number (empty fraction)");
            while (std::isdigit(is.peek()))
                token += static_cast<char>(is.get());
        }
        if (is.peek() == 'e' || is.peek() == 'E') {
            token += static_cast<char>(is.get());
            if (is.peek() == '+' || is.peek() == '-')
                token += static_cast<char>(is.get());
            if (!std::isdigit(is.peek()))
                fatal("json: bad number (empty exponent)");
            while (std::isdigit(is.peek()))
                token += static_cast<char>(is.get());
        }
        return Value::makeNumber(toDouble(token));
    }

    Value
    parseValue()
    {
        const int c = peek();
        if (c < 0)
            fatal("json: unexpected EOF");
        if ((c == '{' || c == '[') && ++depth > maxDepth)
            fatal("json: nesting deeper than ", maxDepth, " levels");
        switch (c) {
          case '{': {
            is.get();
            std::map<std::string, Value> members;
            if (peek() == '}') {
                is.get();
                --depth;
                return Value::makeObject(std::move(members));
            }
            while (true) {
                std::string key = parseString();
                expect(':');
                members[std::move(key)] = parseValue();
                skipWs();
                const int sep = is.get();
                if (sep == '}')
                    break;
                if (sep != ',')
                    fatal("json: expected ',' or '}' in object");
            }
            --depth;
            return Value::makeObject(std::move(members));
          }
          case '[': {
            is.get();
            std::vector<Value> items;
            if (peek() == ']') {
                is.get();
                --depth;
                return Value::makeArray(std::move(items));
            }
            while (true) {
                items.push_back(parseValue());
                skipWs();
                const int sep = is.get();
                if (sep == ']')
                    break;
                if (sep != ',')
                    fatal("json: expected ',' or ']' in array");
            }
            --depth;
            return Value::makeArray(std::move(items));
          }
          case '"':
            return Value::makeString(parseString());
          case 't':
            expectWord("true");
            return Value::makeBool(true);
          case 'f':
            expectWord("false");
            return Value::makeBool(false);
          case 'n':
            expectWord("null");
            return Value::makeNull();
          default: {
            if (c != '-' && !std::isdigit(c))
                fatal("json: expected a value, got '",
                      std::string(1, static_cast<char>(c)), "'");
            return parseNumber();
          }
        }
    }
};

} // namespace

Value
parse(std::istream &is)
{
    Parser<StreamSource> parser(StreamSource{is});
    return parser.parseValue();
}

Value
parse(const std::string &text)
{
    Parser<BufferSource> parser(
        BufferSource{text.data(), text.data() + text.size()});
    Value v = parser.parseValue();
    // A complete string must hold exactly one document.
    if (parser.peek() >= 0)
        fatal("json: trailing content after document");
    return v;
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

} // namespace otft::json
