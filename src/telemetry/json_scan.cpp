#include "telemetry/json_scan.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace reo {

const std::string JsonDoc::kEmpty;

// The one grammar behind Parse and Check. With a doc it appends each value
// as a node (children after their parent, so the root is node 0); without
// one it only validates, decoding strings into reused buffers.
struct JsonDoc::Parser {
  Parser(std::string_view text, JsonDoc* d, const StringVisitor* visit,
         Error* e)
      : in(text), doc(d), on_string(visit), error(e) {}

  std::string_view in;
  JsonDoc* doc;                      // null: Check, no nodes built
  const StringVisitor* on_string;    // Check only
  Error* error;
  size_t pos = 0;
  bool failed = false;
  std::string key_buf;  // current member key (moved into the DOM by Parse)
  std::string str_buf;  // Check's decoded string values

  /// Records the first error only: callers unwind without reporting again.
  bool Fail(std::string_view reason) {
    if (!failed && error != nullptr) {
      error->offset = pos;
      error->reason = std::string(reason);
    }
    failed = true;
    return false;
  }

  bool Document() {
    if (!Value(0)) return false;
    SkipWs();
    if (pos != in.size()) return Fail("trailing characters after the value");
    return true;
  }

  void SkipWs() {
    while (pos < in.size() && (in[pos] == ' ' || in[pos] == '\t' ||
                               in[pos] == '\n' || in[pos] == '\r')) {
      ++pos;
    }
  }

  bool Eat(char c) {
    if (pos < in.size() && in[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool Literal(std::string_view lit) {
    if (in.substr(pos, lit.size()) != lit) return Fail("invalid literal");
    pos += lit.size();
    return true;
  }

  Node* At(size_t idx) { return doc ? &doc->nodes_[idx] : nullptr; }

  bool Value(int depth) {
    if (depth > kMaxDepth) {
      return Fail("nested deeper than " + std::to_string(kMaxDepth) +
                  " levels");
    }
    SkipWs();
    if (pos >= in.size()) return Fail("unexpected end of input");
    size_t idx = 0;
    if (doc) {
      idx = doc->nodes_.size();
      doc->nodes_.emplace_back();
    }
    auto set = [&](Type t, bool b = false) {
      if (Node* n = At(idx)) {
        n->type = t;
        n->b = b;
      }
    };
    switch (in[pos]) {
      case '{':
        set(Type::kObject);
        return Object(idx, depth);
      case '[':
        set(Type::kArray);
        return Array(idx, depth);
      case '"':
        set(Type::kString);
        return String(doc ? &At(idx)->str : &str_buf);
      case 't':
        set(Type::kBool, true);
        return Literal("true");
      case 'f':
        set(Type::kBool);
        return Literal("false");
      case 'n':
        return Literal("null");  // Type::kNull
      default:
        return Number(idx);
    }
  }

  bool Object(size_t idx, int depth) {
    ++pos;  // '{'
    SkipWs();
    if (Eat('}')) return true;
    while (true) {
      SkipWs();
      if (!String(&key_buf)) return false;
      SkipWs();
      if (!Eat(':')) return Fail("expected ':'");
      SkipWs();
      if (doc) {
        Node& n = doc->nodes_[idx];
        n.keys.push_back(std::move(key_buf));
        n.children.push_back(static_cast<int>(doc->nodes_.size()));
      }
      size_t start = pos;
      if (!Value(depth + 1)) return false;
      // A string value parses no keys, so key_buf still holds its key.
      if (on_string && in[start] == '"') (*on_string)(key_buf, str_buf);
      SkipWs();
      if (Eat(',')) continue;
      if (Eat('}')) return true;
      return Fail("expected ',' or '}'");
    }
  }

  bool Array(size_t idx, int depth) {
    ++pos;  // '['
    SkipWs();
    if (Eat(']')) return true;
    while (true) {
      if (doc) {
        doc->nodes_[idx].children.push_back(
            static_cast<int>(doc->nodes_.size()));
      }
      if (!Value(depth + 1)) return false;
      SkipWs();
      if (Eat(',')) continue;
      if (Eat(']')) return true;
      return Fail("expected ',' or ']'");
    }
  }

  bool Digit() const {
    return pos < in.size() && in[pos] >= '0' && in[pos] <= '9';
  }

  bool Number(size_t idx) {
    size_t start = pos;
    bool minus = Eat('-');
    if (!Digit()) return Fail(minus ? "invalid number" : "expected a value");
    // Integer part: no leading zeros per RFC 8259.
    if (!Eat('0')) {
      while (Digit()) ++pos;
    }
    if (Eat('.')) {
      if (!Digit()) return Fail("invalid number");
      while (Digit()) ++pos;
    }
    if (Eat('e') || Eat('E')) {
      if (!Eat('+')) Eat('-');
      if (!Digit()) return Fail("invalid number");
      while (Digit()) ++pos;
    }
    if (Node* n = At(idx)) {
      std::string tmp(in.substr(start, pos - start));  // NUL-terminate
      n->type = Type::kNumber;
      n->num = std::strtod(tmp.c_str(), nullptr);
    }
    return true;
  }

  bool String(std::string* out) {
    if (!Eat('"')) return Fail("expected '\"'");
    out->clear();
    while (pos < in.size()) {
      unsigned char c = static_cast<unsigned char>(in[pos]);
      if (c == '"') {
        ++pos;
        return true;
      }
      if (c < 0x20) return Fail("raw control character in string");
      if (c != '\\') {
        out->push_back(static_cast<char>(c));
        ++pos;
        continue;
      }
      if (++pos >= in.size()) break;
      switch (in[pos++]) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned v = 0;
          for (int i = 0; i < 4; ++i, ++pos) {
            char h = pos < in.size() ? in[pos] : '\0';
            v <<= 4;
            if (h >= '0' && h <= '9') {
              v |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              v |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              v |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Fail("bad \\u escape");
            }
          }
          // Our emitters only produce \u00xx for control bytes; decode
          // the Latin-1 range as one byte and anything beyond as UTF-8.
          if (v < 0x80) {
            out->push_back(static_cast<char>(v));
          } else if (v < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (v >> 6)));
            out->push_back(static_cast<char>(0x80 | (v & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (v >> 12)));
            out->push_back(static_cast<char>(0x80 | ((v >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (v & 0x3F)));
          }
          break;
        }
        default:
          --pos;
          return Fail("bad escape character");
      }
    }
    return Fail("unterminated string");
  }
};

std::optional<JsonDoc> JsonDoc::Parse(std::string_view text, Error* error) {
  if (text.size() > kMaxInput) {
    if (error != nullptr) {
      *error = Error{kMaxInput, "input larger than the " +
                                    std::to_string(kMaxInput >> 20) +
                                    " MiB cap"};
    }
    return std::nullopt;
  }
  JsonDoc doc;
  Parser p(text, &doc, nullptr, error);
  if (!p.Document()) return std::nullopt;
  return doc;
}

bool JsonDoc::Check(std::string_view text, Error* error,
                    const StringVisitor& on_string) {
  Parser p(text, nullptr, on_string ? &on_string : nullptr, error);
  return p.Document();
}

double JsonDoc::number(int node) const {
  if (!is(node, Type::kNumber)) return 0.0;
  return nodes_[static_cast<size_t>(node)].num;
}

std::optional<int64_t> JsonDoc::integer(int node, int64_t min,
                                        int64_t max) const {
  if (!is(node, Type::kNumber)) return std::nullopt;
  double v = nodes_[static_cast<size_t>(node)].num;
  // Both bounds are exact doubles once clamped to ±2^53, and the range
  // check runs before the cast, so the cast is always defined.
  double lo = static_cast<double>(std::max(min, -kMaxExactInteger));
  double hi = static_cast<double>(std::min(max, kMaxExactInteger));
  if (!(v >= lo && v <= hi) || v != std::floor(v)) return std::nullopt;
  return static_cast<int64_t>(v);
}

bool JsonDoc::boolean(int node) const {
  return is(node, Type::kBool) && nodes_[static_cast<size_t>(node)].b;
}

const std::string& JsonDoc::str(int node) const {
  if (!is(node, Type::kString)) return kEmpty;
  return nodes_[static_cast<size_t>(node)].str;
}

size_t JsonDoc::size(int node) const {
  if (node == kInvalid) return 0;
  return nodes_[static_cast<size_t>(node)].children.size();
}

int JsonDoc::item(int node, size_t i) const {
  if (!is(node, Type::kArray)) return kInvalid;
  const Node& n = nodes_[static_cast<size_t>(node)];
  if (i >= n.children.size()) return kInvalid;
  return n.children[i];
}

int JsonDoc::member(int node, std::string_view key) const {
  if (!is(node, Type::kObject)) return kInvalid;
  const Node& n = nodes_[static_cast<size_t>(node)];
  for (size_t i = 0; i < n.keys.size(); ++i) {
    if (n.keys[i] == key) return n.children[i];
  }
  return kInvalid;
}

const std::string& JsonDoc::key(int node, size_t i) const {
  if (!is(node, Type::kObject)) return kEmpty;
  const Node& n = nodes_[static_cast<size_t>(node)];
  if (i >= n.keys.size()) return kEmpty;
  return n.keys[i];
}

int JsonDoc::value(int node, size_t i) const {
  if (!is(node, Type::kObject)) return kInvalid;
  const Node& n = nodes_[static_cast<size_t>(node)];
  if (i >= n.children.size()) return kInvalid;
  return n.children[i];
}

int JsonDoc::Find(std::initializer_list<std::string_view> path) const {
  int node = root();
  for (std::string_view seg : path) {
    node = member(node, seg);
    if (node == kInvalid) return kInvalid;
  }
  return node;
}

std::vector<double> JsonDoc::NumberArray(int node) const {
  std::vector<double> out;
  if (!is(node, Type::kArray)) return out;
  const Node& n = nodes_[static_cast<size_t>(node)];
  out.reserve(n.children.size());
  for (int child : n.children) {
    if (is(child, Type::kNumber)) {
      out.push_back(number(child));
    } else if (is(child, Type::kNull)) {
      out.push_back(std::numeric_limits<double>::quiet_NaN());
    } else {
      out.clear();
      return out;
    }
  }
  return out;
}

}  // namespace reo
