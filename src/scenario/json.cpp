#include "scenario/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <system_error>

#include "obs/prof.h"

namespace mps {

const Json* Json::find(const std::string& key) const {
  require(Type::kObject);
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Json* Json::find(const std::string& key) {
  require(Type::kObject);
  for (auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Json& Json::operator[](const std::string& key) {
  if (type_ == Type::kNull) type_ = Type::kObject;  // let j["a"]["b"] build nested objects
  require(Type::kObject);
  if (Json* v = find(key)) return *v;
  members_.emplace_back(key, Json{});
  return members_.back().second;
}

namespace {

const char* type_name(Json::Type t) {
  static const char* names[] = {"null", "bool", "int", "double", "string", "array", "object"};
  return names[static_cast<int>(t)];
}

}  // namespace

void Json::require(Type t) const {
  if (type_ != t) {
    throw std::logic_error(std::string("json: accessed ") + type_name(type_) + " value as " +
                           type_name(t));
  }
}

void set_at_path(Json& root, const std::string& path, Json value) {
  const auto fail = [&path](const std::string& why) {
    throw std::invalid_argument("path '" + path + "': " + why);
  };
  Json* node = &root;
  std::size_t i = 0;
  while (true) {
    std::size_t j = i;
    while (j < path.size() && path[j] != '.' && path[j] != '[') ++j;
    const std::string key = path.substr(i, j - i);
    if (key.empty()) fail("empty key segment");
    const std::string parent = path.substr(0, i == 0 ? 0 : i - 1);
    if (node->is_array()) {
      const bool numeric = key.find_first_not_of("0123456789") == std::string::npos;
      fail("'" + parent + "' is an array; index it as " + parent + "[" +
           (numeric ? key : "0") + "]");
    }
    if (!node->is_object() && !node->is_null()) {
      fail("'" + parent + "' is of type " + type_name(node->type()) + ", not object");
    }
    node = &(*node)[key];  // insert-or-get; promotes null to object
    while (j < path.size() && path[j] == '[') {
      const std::string at = path.substr(0, j);
      const std::size_t close = path.find(']', j);
      if (close == std::string::npos) fail("unterminated [");
      if (!node->is_array()) {
        fail("'" + at + "' is of type " + type_name(node->type()) +
             ", not array; the [i] form (as in paths[0]) indexes arrays only, members of an "
             "object are " + at + ".<key>");
      }
      const char* first = path.data() + j + 1;
      const char* last = path.data() + close;
      std::size_t idx = 0;
      const auto [end, ec] = std::from_chars(first, last, idx);
      if (first == last || ec != std::errc{} || end != last) {
        fail("bad array index '" + std::string(first, last) + "'");
      }
      if (idx >= node->items().size()) {
        fail("index " + std::to_string(idx) + " out of range: '" + at + "' has " +
             std::to_string(node->items().size()) + " elements");
      }
      node = &node->items()[idx];
      j = close + 1;
    }
    if (j == path.size()) break;
    if (path[j] != '.') fail("expected '.' after ']'");
    i = j + 1;
  }
  *node = std::move(value);
}

bool operator==(const Json& a, const Json& b) {
  if (a.type_ != b.type_) return false;
  switch (a.type_) {
    case Json::Type::kNull: return true;
    case Json::Type::kBool: return a.bool_ == b.bool_;
    case Json::Type::kInt: return a.int_ == b.int_;
    case Json::Type::kDouble: return a.double_ == b.double_;
    case Json::Type::kString: return a.string_ == b.string_;
    case Json::Type::kArray: return a.items_ == b.items_;
    case Json::Type::kObject: return a.members_ == b.members_;
  }
  return false;
}

namespace {

void append_quoted(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;  // UTF-8 bytes pass through untouched
        }
    }
  }
  out += '"';
}

// Shortest decimal form that parses back to the same double; always contains
// a '.' or 'e' so the int/double distinction survives a round trip.
void append_double(std::string& out, double d) {
  if (!std::isfinite(d)) throw std::logic_error("json: cannot serialize non-finite double");
  char buf[32];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), d);
  if (ec != std::errc()) throw std::logic_error("json: double serialization failed");
  std::string s(buf, end);
  if (s.find('.') == std::string::npos && s.find('e') == std::string::npos &&
      s.find("inf") == std::string::npos && s.find("nan") == std::string::npos) {
    s += ".0";
  }
  out += s;
}

void append_newline_indent(std::string& out, int indent, int depth) {
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  switch (type_) {
    case Type::kNull: out += "null"; return;
    case Type::kBool: out += bool_ ? "true" : "false"; return;
    case Type::kInt: out += std::to_string(int_); return;
    case Type::kDouble: append_double(out, double_); return;
    case Type::kString: append_quoted(out, string_); return;
    case Type::kArray: {
      if (items_.empty()) { out += "[]"; return; }
      out += '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out += ',';
        if (pretty) append_newline_indent(out, indent, depth + 1);
        items_[i].dump_to(out, indent, depth + 1);
      }
      if (pretty) append_newline_indent(out, indent, depth);
      out += ']';
      return;
    }
    case Type::kObject: {
      if (members_.empty()) { out += "{}"; return; }
      out += '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out += ',';
        if (pretty) append_newline_indent(out, indent, depth + 1);
        append_quoted(out, members_[i].first);
        out += pretty ? ": " : ":";
        members_[i].second.dump_to(out, indent, depth + 1);
      }
      if (pretty) append_newline_indent(out, indent, depth);
      out += '}';
      return;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json run() {
    skip_ws();
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const { throw JsonError(msg, line_, col_); }

  char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char advance() {
    char c = peek();
    ++pos_;
    if (c == '\n') { ++line_; col_ = 1; } else { ++col_; }
    return c;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') { advance(); continue; }
      // Allow // line comments: presets are hand-edited files.
      if (c == '/' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '/') {
        while (pos_ < text_.size() && text_[pos_] != '\n') advance();
        continue;
      }
      break;
    }
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "', got '" + peek() + "'");
    advance();
  }

  bool literal(const char* word) {
    std::size_t n = std::char_traits<char>::length(word);
    if (text_.compare(pos_, n, word) != 0) return false;
    for (std::size_t i = 0; i < n; ++i) advance();
    return true;
  }

  Json parse_value() {
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json::string(parse_string());
      case 't': if (literal("true")) return Json::boolean(true); fail("invalid literal");
      case 'f': if (literal("false")) return Json::boolean(false); fail("invalid literal");
      case 'n': if (literal("null")) return Json::null(); fail("invalid literal");
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') { advance(); return obj; }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      if (obj.find(key) != nullptr) fail("duplicate object key \"" + key + "\"");
      skip_ws();
      expect(':');
      skip_ws();
      obj.set(key, parse_value());
      skip_ws();
      if (peek() == ',') { advance(); continue; }
      expect('}');
      return obj;
    }
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') { advance(); return arr; }
    while (true) {
      skip_ws();
      arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') { advance(); continue; }
      expect(']');
      return arr;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      char c = advance();
      if (c == '"') return out;
      if (c == '\\') {
        char e = advance();
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = advance();
              code <<= 4;
              if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
              else fail("invalid \\u escape");
            }
            // Encode BMP code point as UTF-8 (surrogate pairs unsupported).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail(std::string("invalid escape '\\") + e + "'");
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) fail("unescaped control character in string");
      out += c;
    }
  }

  Json parse_number() {
    std::size_t start = pos_;
    bool is_double = false;
    if (pos_ < text_.size() && text_[pos_] == '-') advance();
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c >= '0' && c <= '9') { advance(); continue; }
      if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        advance();
        continue;
      }
      break;
    }
    if (pos_ == start) fail("invalid value");
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    if (!is_double) {
      std::int64_t i = 0;
      auto [p, ec] = std::from_chars(first, last, i);
      if (ec == std::errc() && p == last) return Json::number(i);
      // Out-of-range integers fall through to double.
    }
    double d = 0.0;
    auto [p, ec] = std::from_chars(first, last, d);
    if (ec != std::errc() || p != last) fail("invalid number");
    return Json::number(d);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
};

}  // namespace

Json Json::parse(const std::string& text) {
  MPS_PROF_SCOPE(kSpecParse);
  MPS_PROF_MEM_SCOPE(kSpec);
  return Parser(text).run();
}

}  // namespace mps
