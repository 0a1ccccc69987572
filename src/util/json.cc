#include "util/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>

#include "util/string_util.h"

namespace kgpip {

namespace {

/// Recursive-descent JSON parser over a string_view cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Json> ParseDocument() {
    SkipWs();
    KGPIP_ASSIGN_OR_RETURN(Json value, ParseValue());
    SkipWs();
    if (pos_ != text_.size()) {
      return Status::ParseError("trailing characters at offset " +
                                std::to_string(pos_));
    }
    return value;
  }

 private:
  Result<Json> ParseValue() {
    if (pos_ >= text_.size()) return Err("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == Json::kMaxParseDepth) {
          return Err(StrFormat("nesting deeper than %d levels",
                               Json::kMaxParseDepth));
        }
        ++depth_;
        Result<Json> nested = c == '{' ? ParseObject() : ParseArray();
        --depth_;
        return nested;
      }
      case '"':
        return ParseString();
      case 't':
        return ParseKeyword("true", Json(true));
      case 'f':
        return ParseKeyword("false", Json(false));
      case 'n':
        return ParseKeyword("null", Json());
      default:
        return ParseNumber();
    }
  }

  Result<Json> ParseObject() {
    ++pos_;  // '{'
    Json obj = Json::Object();
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      SkipWs();
      if (Peek() != '"') return Err("expected object key");
      KGPIP_ASSIGN_OR_RETURN(Json key, ParseString());
      SkipWs();
      if (Peek() != ':') return Err("expected ':'");
      ++pos_;
      SkipWs();
      KGPIP_ASSIGN_OR_RETURN(Json value, ParseValue());
      obj.Set(key.AsString(), std::move(value));
      SkipWs();
      char c = Peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return obj;
      }
      return Err("expected ',' or '}'");
    }
  }

  Result<Json> ParseArray() {
    ++pos_;  // '['
    Json arr = Json::Array();
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      SkipWs();
      KGPIP_ASSIGN_OR_RETURN(Json value, ParseValue());
      arr.Append(std::move(value));
      SkipWs();
      char c = Peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return arr;
      }
      return Err("expected ',' or ']'");
    }
  }

  Result<Json> ParseString() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return Json(std::move(out));
      if (c == '\\') {
        if (pos_ >= text_.size()) return Err("bad escape");
        char e = text_[pos_++];
        switch (e) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'n':
            out += '\n';
            break;
          case 'r':
            out += '\r';
            break;
          case 't':
            out += '\t';
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Err("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Err("bad \\u escape digit");
              }
            }
            // UTF-8 encode (BMP only; surrogate pairs unsupported).
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
          default:
            return Err("unknown escape");
        }
      } else {
        out += c;
      }
    }
    return Err("unterminated string");
  }

  Result<Json> ParseNumber() {
    size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double v = 0.0;
    if (!ParseDouble(text_.substr(start, pos_ - start), &v)) {
      return Err("invalid number");
    }
    return Json(v);
  }

  Result<Json> ParseKeyword(std::string_view kw, Json value) {
    if (text_.substr(pos_, kw.size()) != kw) return Err("invalid literal");
    pos_ += kw.size();
    return value;
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  Status Err(const std::string& what) const {
    return Status::ParseError(what + " at offset " + std::to_string(pos_));
  }

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;  // arrays and objects open around pos_
};

void AppendEscaped(std::string* out, const std::string& s) {
  *out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
  *out += '"';
}

void AppendNumber(std::string* out, double v) {
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    *out += buf;
  } else {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    *out += buf;
  }
}

}  // namespace

bool Json::Has(std::string_view key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return true;
  }
  return false;
}

const Json& Json::Null() {
  static const Json kNull;
  return kNull;
}

const Json& Json::Get(std::string_view key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return v;
  }
  return Null();
}

void Json::Set(std::string key, Json value) {
  type_ = Type::kObject;
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  members_.emplace_back(std::move(key), std::move(value));
}

void Json::DumpTo(std::string* out, int indent, int depth) const {
  auto newline = [&](int d) {
    if (indent > 0) {
      *out += '\n';
      out->append(static_cast<size_t>(indent * d), ' ');
    }
  };
  switch (type_) {
    case Type::kNull:
      *out += "null";
      break;
    case Type::kBool:
      *out += bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      AppendNumber(out, number_);
      break;
    case Type::kString:
      AppendEscaped(out, string_);
      break;
    case Type::kArray: {
      *out += '[';
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) *out += ',';
        newline(depth + 1);
        array_[i].DumpTo(out, indent, depth + 1);
      }
      if (!array_.empty()) newline(depth);
      *out += ']';
      break;
    }
    case Type::kObject: {
      *out += '{';
      for (size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) *out += ',';
        newline(depth + 1);
        AppendEscaped(out, members_[i].first);
        *out += indent > 0 ? ": " : ":";
        members_[i].second.DumpTo(out, indent, depth + 1);
      }
      if (!members_.empty()) newline(depth);
      *out += '}';
      break;
    }
  }
}

std::string Json::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0);
  return out;
}

Result<Json> Json::Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

}  // namespace kgpip
