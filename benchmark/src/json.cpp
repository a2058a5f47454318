#include "json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace mbench::json {

namespace {

class Parser
{
  public:
    explicit Parser(const std::string &text) : s_(text) {}

    Value
    document()
    {
        Value v = value(0);
        skipSpace();
        if (pos_ != s_.size())
            fail("trailing characters");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw std::runtime_error("json: " + what + " at offset " +
                                 std::to_string(pos_));
    }

    void
    skipSpace()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\r' ||
                s_[pos_] == '\t'))
            ++pos_;
    }

    bool
    consume(char c)
    {
        skipSpace();
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    void
    expect(char c)
    {
        if (!consume(c))
            fail(std::string("expected '") + c + "'");
    }

    bool
    literal(const char *word)
    {
        size_t n = std::char_traits<char>::length(word);
        if (s_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    Value
    value(int depth)
    {
        if (depth > 64)
            fail("nesting too deep");
        skipSpace();
        if (pos_ >= s_.size())
            fail("unexpected end of input");
        Value v;
        char c = s_[pos_];
        if (c == '{') {
            ++pos_;
            v.type = Value::Type::Object;
            if (consume('}'))
                return v;
            do {
                skipSpace();
                std::string key = string();
                expect(':');
                v.members.emplace_back(std::move(key), value(depth + 1));
            } while (consume(','));
            expect('}');
        } else if (c == '[') {
            ++pos_;
            v.type = Value::Type::Array;
            if (consume(']'))
                return v;
            do {
                v.items.push_back(value(depth + 1));
            } while (consume(','));
            expect(']');
        } else if (c == '"') {
            v.type = Value::Type::String;
            v.str = string();
        } else if (literal("true")) {
            v.type = Value::Type::Bool;
            v.boolean = true;
        } else if (literal("false")) {
            v.type = Value::Type::Bool;
        } else if (literal("null")) {
            v.type = Value::Type::Null;
        } else {
            const char *begin = s_.c_str() + pos_;
            char *end = nullptr;
            v.number = std::strtod(begin, &end);
            if (end == begin)
                fail("unexpected character");
            pos_ += static_cast<size_t>(end - begin);
            v.type = Value::Type::Number;
        }
        return v;
    }

    std::string
    string()
    {
        if (pos_ >= s_.size() || s_[pos_] != '"')
            fail("expected string");
        ++pos_;
        std::string out;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            char c = s_[pos_++];
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= s_.size())
                break;
            char e = s_[pos_++];
            switch (e) {
              case 'n': out += '\n'; break;
              case 't': out += '\t'; break;
              case 'r': out += '\r'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': {
                if (pos_ + 4 > s_.size())
                    fail("truncated \\u escape");
                unsigned code = static_cast<unsigned>(
                    std::strtoul(s_.substr(pos_, 4).c_str(), nullptr, 16));
                pos_ += 4;
                // The benchmark's files are ASCII; keep other code
                // points as '?' rather than decoding UTF-16.
                out += code < 0x80 ? static_cast<char>(code) : '?';
                break;
              }
              default: out += e; break;
            }
        }
        if (pos_ >= s_.size())
            fail("unterminated string");
        ++pos_;
        return out;
    }

    const std::string &s_;
    size_t pos_ = 0;
};

} // namespace

const Value *
Value::find(const std::string &key) const
{
    for (const auto &[k, v] : members)
        if (k == key)
            return &v;
    return nullptr;
}

const Value &
Value::at(const std::string &key) const
{
    const Value *v = find(key);
    if (!v)
        throw std::runtime_error("json: missing key \"" + key + "\"");
    return *v;
}

Value
parse(const std::string &text)
{
    return Parser(text).document();
}

Value
parseFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    try {
        return parse(ss.str());
    } catch (const std::runtime_error &e) {
        throw std::runtime_error(path + ": " + e.what());
    }
}

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        throw std::runtime_error("json: non-finite number");
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace mbench::json
