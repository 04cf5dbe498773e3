/**
 * @file
 * Minimal deterministic JSON emitter.
 *
 * The sweep sinks (and clumsy_sim --json) need JSON output that is
 * byte-for-byte reproducible: doubles are printed in their shortest
 * round-trip decimal form via std::to_chars, keys are emitted in the
 * order the caller writes them, and there is no locale dependence.
 * Writing is append-only into a growing string; the writer tracks
 * nesting solely to place commas, so malformed sequences are caught
 * by assertions rather than producing broken output.
 *
 * parseJson() reads such documents back (--resume).
 */

#ifndef CLUMSY_SWEEP_JSON_HH
#define CLUMSY_SWEEP_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace clumsy::sweep
{

/** Escape a string for inclusion inside JSON quotes. */
std::string jsonEscape(const std::string &s);

/** Shortest round-trip decimal text for a finite double. */
std::string jsonNumber(double v);

/** Append-only JSON builder with automatic comma placement. */
class JsonWriter
{
  public:
    /**
     * @param indentStep  spaces per nesting level; 0 emits compact
     *                    single-line JSON (used for per-cell lines)
     */
    explicit JsonWriter(unsigned indentStep = 0)
        : indentStep_(indentStep)
    {
    }

    JsonWriter &beginObject() { return open('{'); }
    JsonWriter &endObject() { return close('}'); }
    JsonWriter &beginArray() { return open('['); }
    JsonWriter &endArray() { return close(']'); }

    /** Start a "key": inside the current object. */
    JsonWriter &key(const std::string &name);

    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v);
    JsonWriter &value(double v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(bool v);

    /** Splice pre-rendered JSON (e.g. a stored result line) as-is. */
    JsonWriter &raw(const std::string &json);

    /** The document so far. */
    const std::string &str() const { return out_; }

  private:
    std::string out_;
    unsigned indentStep_;
    unsigned depth_ = 0;
    bool needComma_ = false;
    bool afterKey_ = false;

    void separate();
    void newlineIndent();
    JsonWriter &open(char bracket);
    JsonWriter &close(char bracket);
};

/** A parsed JSON value; only what this library's documents contain. */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Num,
        Str,
        Arr,
        Obj
    };
    Kind kind = Kind::Null;
    bool b = false;
    double num = 0.0;
    std::string str;
    std::vector<JsonValue> arr;
    std::vector<std::pair<std::string, JsonValue>> obj;

    /** The member named @p key of an object, or nullptr. */
    const JsonValue *find(const std::string &key) const;
};

/** Parse one JSON document; fatal()s with the byte offset on junk. */
JsonValue parseJson(const std::string &text);

} // namespace clumsy::sweep

#endif // CLUMSY_SWEEP_JSON_HH
