/**
 * @file
 * Minimal JSON document model and recursive-descent parser, the one
 * JSON reader in the project: stats dumps (`--stats-json`), the
 * BENCH_*.json perf reports, the one-line bench footers and the
 * persisted result cache all parse through it. Full JSON is accepted
 * (null/bool/number/string/array/object, string escapes, nesting);
 * writing stays with the producers, which stream their own documents
 * for stable field order through escape() and number().
 */

#ifndef OTFT_UTIL_JSON_HPP
#define OTFT_UTIL_JSON_HPP

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace otft::json {

/**
 * Maximum container nesting depth the parser accepts. The parser is
 * recursive-descent, so unbounded nesting would overflow the stack on
 * hostile input; this path guards the perf gate, which reads files an
 * editor or script may have mangled. Fatal, not UB, past the cap.
 */
inline constexpr int maxDepth = 128;

/** JSON value kinds. */
enum class Kind { Null, Bool, Number, String, Array, Object };

/** @return printable kind name. */
const char *toString(Kind kind);

/**
 * One parsed JSON value. Object member order is not preserved (keys
 * sort lexicographically), which is fine for the machine-generated
 * documents this reader consumes.
 */
class Value
{
  public:
    Value() = default;

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isObject() const { return kind_ == Kind::Object; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }

    /** Typed accessors; fatal on a kind mismatch. */
    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;
    const std::vector<Value> &asArray() const;
    const std::map<std::string, Value> &asObject() const;

    /** @return true when this is an object with the given member. */
    bool has(const std::string &key) const;

    /** Object member; fatal when absent or not an object. */
    const Value &at(const std::string &key) const;

    /** Member as a number/string, or the fallback when absent. */
    double number(const std::string &key, double fallback = 0.0) const;
    std::string string(const std::string &key,
                       const std::string &fallback = "") const;

    /** Construction helpers (used by the parser). */
    static Value makeNull();
    static Value makeBool(bool b);
    static Value makeNumber(double v);
    static Value makeString(std::string s);
    static Value makeArray(std::vector<Value> items);
    static Value makeObject(std::map<std::string, Value> members);

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<Value> array_;
    std::map<std::string, Value> object_;
};

/**
 * Parse one JSON document from the stream; fatal on malformed input.
 * Trailing content after the document is left unread, so callers can
 * parse newline-delimited JSON (the bench footer format) by calling
 * repeatedly.
 */
Value parse(std::istream &is);

/**
 * Parse a complete string; fatal on malformed input or on anything
 * but whitespace after the document. Parses straight from the string's
 * buffer (no stream in between), with the same grammar, errors and
 * numbers as the stream overload.
 */
Value parse(const std::string &text);

/** Escape a string for embedding in emitted JSON (no quotes added). */
std::string escape(const std::string &s);

/**
 * Format a double as a JSON number that round-trips (%.17g). JSON
 * has no NaN or infinity, so a non-finite value is written as 0.
 */
std::string number(double v);

} // namespace otft::json

#endif // OTFT_UTIL_JSON_HPP
