#include "sweep/json.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"

namespace clumsy::sweep
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
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
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    CLUMSY_ASSERT(std::isfinite(v), "JSON cannot carry %g", v);
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    CLUMSY_ASSERT(res.ec == std::errc(), "number format overflow");
    return std::string(buf, res.ptr);
}

void
JsonWriter::separate()
{
    if (afterKey_) {
        afterKey_ = false;
        return;
    }
    if (needComma_)
        out_ += indentStep_ ? "," : ", ";
    if (depth_ > 0)
        newlineIndent();
}

void
JsonWriter::newlineIndent()
{
    if (indentStep_ == 0)
        return;
    out_ += "\n";
    out_.append(static_cast<std::size_t>(depth_) * indentStep_, ' ');
}

JsonWriter &
JsonWriter::open(char bracket)
{
    separate();
    out_ += bracket;
    ++depth_;
    needComma_ = false;
    return *this;
}

JsonWriter &
JsonWriter::close(char bracket)
{
    CLUMSY_ASSERT(depth_ > 0, "closing '%c' at depth 0", bracket);
    --depth_;
    if (needComma_)
        newlineIndent();
    out_ += bracket;
    needComma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &name)
{
    separate();
    out_ += '"';
    out_ += jsonEscape(name);
    out_ += "\": ";
    afterKey_ = true;
    needComma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    std::string quoted = "\"";
    quoted += jsonEscape(v);
    quoted += '"';
    return raw(quoted);
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string(v));
}

JsonWriter &
JsonWriter::value(double v)
{
    return raw(jsonNumber(v));
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    return raw(std::to_string(v));
}

JsonWriter &
JsonWriter::value(bool v)
{
    return raw(v ? "true" : "false");
}

JsonWriter &
JsonWriter::raw(const std::string &json)
{
    separate();
    out_ += json;
    needComma_ = true;
    return *this;
}

namespace
{

struct JsonParser
{
    const std::string &text;
    std::size_t pos = 0;

    [[noreturn]] void die(const char *what) const
    {
        fatal("sweep JSON parse error at byte %zu: %s", pos, what);
    }

    void skipWs()
    {
        while (pos < text.size() && std::isspace(
                                         static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    char peek()
    {
        skipWs();
        if (pos >= text.size())
            die("unexpected end of input");
        return text[pos];
    }

    void expect(char c)
    {
        if (peek() != c)
            die("unexpected character");
        ++pos;
    }

    bool consume(char c)
    {
        if (peek() != c)
            return false;
        ++pos;
        return true;
    }

    std::string parseString()
    {
        expect('"');
        std::string out;
        while (pos < text.size() && text[pos] != '"') {
            char c = text[pos++];
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= text.size())
                die("dangling escape");
            const char esc = text[pos++];
            // An escape in kEscaped decodes to kDecoded's same index.
            static const std::string kEscaped = "\"\\/ntr";
            static const std::string kDecoded = "\"\\/\n\t\r";
            if (const std::size_t i = kEscaped.find(esc);
                i != std::string::npos) {
                out += kDecoded[i];
                continue;
            }
            if (esc != 'u')
                die("unsupported escape");
            if (pos + 4 > text.size())
                die("short \\u escape");
            out += static_cast<char>(
                std::strtoul(text.substr(pos, 4).c_str(), nullptr, 16));
            pos += 4;
        }
        if (pos >= text.size())
            die("unterminated string");
        ++pos; // closing quote
        return out;
    }

    JsonValue parseValue()
    {
        JsonValue v;
        const char c = peek();
        if (c == '{') {
            ++pos;
            v.kind = JsonValue::Kind::Obj;
            if (consume('}'))
                return v;
            for (;;) {
                std::string key = parseString();
                expect(':');
                v.obj.emplace_back(std::move(key), parseValue());
                if (consume('}'))
                    return v;
                expect(',');
            }
        }
        if (c == '[') {
            ++pos;
            v.kind = JsonValue::Kind::Arr;
            if (consume(']'))
                return v;
            for (;;) {
                v.arr.push_back(parseValue());
                if (consume(']'))
                    return v;
                expect(',');
            }
        }
        if (c == '"') {
            v.kind = JsonValue::Kind::Str;
            v.str = parseString();
            return v;
        }
        if (c == 't' || c == 'f') {
            const std::string word = c == 't' ? "true" : "false";
            if (text.compare(pos, word.size(), word) != 0)
                die("bad literal");
            pos += word.size();
            v.kind = JsonValue::Kind::Bool;
            v.b = c == 't';
            return v;
        }
        if (c == 'n') {
            if (text.compare(pos, 4, "null") != 0)
                die("bad literal");
            pos += 4;
            return v;
        }
        // number
        char *end = nullptr;
        v.num = std::strtod(text.c_str() + pos, &end);
        if (end == text.c_str() + pos)
            die("expected a value");
        pos = static_cast<std::size_t>(end - text.c_str());
        v.kind = JsonValue::Kind::Num;
        return v;
    }
};

} // namespace

const JsonValue *
JsonValue::find(const std::string &key) const
{
    for (const auto &kv : obj) {
        if (kv.first == key)
            return &kv.second;
    }
    return nullptr;
}

JsonValue
parseJson(const std::string &text)
{
    JsonParser parser{text};
    return parser.parseValue();
}

} // namespace clumsy::sweep
