/**
 * @file
 * Minimal JSON reader and writer helpers for the benchmark's own files:
 * BENCHMARK.json (metric lists and bounds), golden.json (canary
 * digests) and result sets (compare). Not a general-purpose library:
 * numbers are doubles, and duplicate object keys keep the first.
 */
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace mbench::json {

struct Value
{
    enum class Type { Null, Bool, Number, String, Array, Object };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<Value> items;                           ///< Array
    std::vector<std::pair<std::string, Value>> members; ///< Object

    /** Member @p key of an object, or nullptr. */
    const Value *find(const std::string &key) const;

    /** Member @p key of an object; throws std::runtime_error if absent. */
    const Value &at(const std::string &key) const;
};

/** Parse @p text; throws std::runtime_error on malformed input. */
Value parse(const std::string &text);

/** Read and parse the file at @p path; throws on I/O or parse errors. */
Value parseFile(const std::string &path);

/** @p s as a quoted JSON string literal. */
std::string quote(const std::string &s);

/** @p v with all its significant digits; throws if not finite. */
std::string number(double v);

} // namespace mbench::json
