/**
 * @file
 * Minimal JSON value type for the repaird NDJSON wire protocol (also
 * the reader of bench/perf_gate's metrics files).
 *
 * The protocol carries whole Verilog sources and trace CSVs inside
 * JSON strings, so this implementation round-trips arbitrary bytes:
 * every control character, quote and backslash is escaped on write
 * and unescaped on read (including \uXXXX for the C0 range).
 * Writing always produces a single line — the NDJSON framing
 * invariant — because the escaper never emits a raw newline.
 *
 * Parsing is strict enough to reject the malformed framings the
 * fault-injection tests throw at the daemon (truncated objects,
 * trailing garbage, bad escapes) and never throws: callers on the
 * request path must treat a bad line as that client's error, not as
 * an exception unwinding the accept loop.
 */
#ifndef RTLREPAIR_SERVICE_JSON_HPP
#define RTLREPAIR_SERVICE_JSON_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rtlrepair::service {

/** A parsed JSON value (object keys are sorted; duplicates keep the
 *  last occurrence). */
class Json
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Json() = default;
    static Json null() { return Json(); }
    static Json boolean(bool b);
    static Json number(double n);
    static Json number(uint64_t n);
    static Json number(int n) { return number(double(n)); }
    static Json string(std::string s);
    static Json array();
    static Json object();

    Kind kind() const { return _kind; }
    bool isObject() const { return _kind == Kind::Object; }
    bool isArray() const { return _kind == Kind::Array; }
    bool isString() const { return _kind == Kind::String; }
    bool isNumber() const { return _kind == Kind::Number; }

    /** Value accessors; wrong-kind access returns the default. */
    bool asBool(bool dflt = false) const;
    double asNumber(double dflt = 0.0) const;
    const std::string &asString() const { return _str; }
    const std::vector<Json> &items() const { return _array; }

    /** Object field lookup; nullptr when absent or not an object. */
    const Json *find(const std::string &key) const;
    /** Typed field helpers (default when absent / wrong kind). */
    std::string str(const std::string &key,
                    const std::string &dflt = "") const;
    double num(const std::string &key, double dflt = 0.0) const;
    bool flag(const std::string &key, bool dflt = false) const;

    /** Mutators (no-ops unless this is an object/array). */
    Json &set(const std::string &key, Json value);
    Json &push(Json value);

    /** Serialize as a single line (no raw newlines anywhere). */
    std::string dump() const;

    /**
     * Parse @p text into @p out.  Returns false (and fills @p error)
     * on malformed input, including trailing non-whitespace.  Never
     * throws.
     */
    static bool parse(const std::string &text, Json &out,
                      std::string *error = nullptr);

  private:
    Kind _kind = Kind::Null;
    bool _bool = false;
    double _num = 0.0;
    std::string _str;
    std::vector<Json> _array;
    std::map<std::string, Json> _object;
};

/** Escape @p text as a JSON string literal including the quotes. */
std::string jsonQuote(const std::string &text);

} // namespace rtlrepair::service

#endif // RTLREPAIR_SERVICE_JSON_HPP
