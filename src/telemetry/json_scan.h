// The repo's one JSON reader. Every JSON input — admin replies, bench
// reports, fault specs, Chrome traces — goes through the recursive-descent
// grammar in json_scan.cpp, in one of two passes:
//
//   - Parse builds an arena DOM (one flat node vector, indices as
//     references) for the tooling that walks a reply (reo_top,
//     admin_probe, bench_validate, ParseFaultSpec). Input is capped at
//     kMaxInput: a DOM costs ~20x its text.
//   - Check builds nothing and has no input cap, so a fully sampled trace
//     of any size validates with no memory beyond its text. It hands each
//     string-valued object member to a visitor (trace_validate counts the
//     "ph" phases this way).
//
// Both are strict on structure (balanced, complete, single root, RFC 8259
// numbers) and nest at most kMaxDepth deep, and both report the byte
// offset and reason of the first error.
//
// Deliberately NOT a general-purpose library: no writer (json_util.h
// emits), no surrogate-pair decoding, no number-roundtrip guarantees past
// double precision. Both sides of the wire are this repo; JsonScanTest
// covers hostile inputs anyway (truncation, raw control bytes, depth bombs).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace reo {

class JsonDoc {
 public:
  enum class Type : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Where and why a parse stopped.
  struct Error {
    size_t offset = 0;   ///< byte offset of the first problem
    std::string reason;  ///< e.g. "expected ':'"
  };

  /// Called with (key, decoded value) for every object member whose value
  /// is a string, at any depth, in document order. Both views point into
  /// the parser's buffers and are valid only during the call.
  using StringVisitor =
      std::function<void(std::string_view key, std::string_view value)>;

  /// Parses one complete JSON value (plus optional surrounding whitespace).
  /// Returns nullopt on any syntax error, trailing garbage, or input
  /// larger than kMaxInput / nested deeper than kMaxDepth, and then fills
  /// `error` if given.
  static std::optional<JsonDoc> Parse(std::string_view text,
                                      Error* error = nullptr);

  /// The same grammar without a DOM or an input cap: true if `text` is one
  /// complete JSON value. `on_string`, if set, sees each string member.
  static bool Check(std::string_view text, Error* error = nullptr,
                    const StringVisitor& on_string = nullptr);

  static constexpr size_t kMaxInput = 64u << 20;
  static constexpr int kMaxDepth = 64;
  static constexpr int kInvalid = -1;
  /// Largest magnitude integer() returns: doubles are exact up to here.
  static constexpr int64_t kMaxExactInteger = int64_t{1} << 53;

  int root() const { return 0; }

  Type type(int node) const { return nodes_[static_cast<size_t>(node)].type; }
  bool is(int node, Type t) const { return node != kInvalid && type(node) == t; }

  /// Number value; 0.0 if the node is not a number.
  double number(int node) const;
  /// The value of an integral number inside [min, max] and within
  /// ±kMaxExactInteger; nullopt for anything else (a bool, a fraction,
  /// an out-of-range or missing value), so callers cast without UB.
  std::optional<int64_t> integer(int node, int64_t min, int64_t max) const;
  bool boolean(int node) const;
  /// Decoded string value; empty if not a string.
  const std::string& str(int node) const;

  /// Array length / object member count; 0 for scalars.
  size_t size(int node) const;
  /// Array element i (kInvalid if out of range / not an array).
  int item(int node, size_t i) const;
  /// Object member by key (kInvalid if missing / not an object). Keys with
  /// dots are fine — lookup is exact, not path-split.
  int member(int node, std::string_view key) const;
  /// Object member by position, for iteration.
  const std::string& key(int node, size_t i) const;
  int value(int node, size_t i) const;

  /// Convenience: member(...) chained through nested objects.
  int Find(std::initializer_list<std::string_view> path) const;

  /// Numbers of an all-number/null array (null -> NaN); empty if not.
  std::vector<double> NumberArray(int node) const;

 private:
  struct Node {
    Type type = Type::kNull;
    double num = 0.0;
    bool b = false;
    std::string str;                    // string value
    std::vector<std::string> keys;      // object keys
    std::vector<int> children;          // array items / object values
  };

  std::vector<Node> nodes_;
  static const std::string kEmpty;

  struct Parser;
};

}  // namespace reo
