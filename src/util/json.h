#ifndef KGPIP_UTIL_JSON_H_
#define KGPIP_UTIL_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace kgpip {

/// A minimal JSON document model. KGpip uses JSON for the integration
/// contract between the core system and hyper-parameter optimizers (the
/// paper: "the integration of a hyperparameter optimizer into KGpip needs a
/// JSON document of the particular preprocessors and estimators supported"),
/// and for artifact serialization.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}              // NOLINT
  Json(double d) : type_(Type::kNumber), number_(d) {}        // NOLINT
  Json(int i) : type_(Type::kNumber), number_(i) {}           // NOLINT
  Json(int64_t i)                                             // NOLINT
      : type_(Type::kNumber), number_(static_cast<double>(i)) {}
  Json(size_t i)                                              // NOLINT
      : type_(Type::kNumber), number_(static_cast<double>(i)) {}
  Json(const char* s) : type_(Type::kString), string_(s) {}   // NOLINT
  Json(std::string s)                                         // NOLINT
      : type_(Type::kString), string_(std::move(s)) {}

  static Json Array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  static Json Object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool AsBool(bool fallback = false) const {
    return is_bool() ? bool_ : fallback;
  }
  double AsDouble(double fallback = 0.0) const {
    return is_number() ? number_ : fallback;
  }
  int64_t AsInt(int64_t fallback = 0) const {
    return is_number() ? static_cast<int64_t>(number_) : fallback;
  }
  const std::string& AsString() const { return string_; }

  /// Array access. `size` also counts an object's members; `at` returns
  /// a shared null for a non-array or an index past the end, as `Get`
  /// does for a missing key.
  size_t size() const {
    return is_array() ? array_.size() : (is_object() ? members_.size() : 0);
  }
  const Json& at(size_t i) const {
    return is_array() && i < array_.size() ? array_[i] : Null();
  }
  void Append(Json value) { array_.push_back(std::move(value)); }
  const std::vector<Json>& items() const { return array_; }

  /// Object access. `Get` returns a shared null for missing keys.
  bool Has(std::string_view key) const;
  const Json& Get(std::string_view key) const;
  void Set(std::string key, Json value);
  const std::vector<std::pair<std::string, Json>>& members() const {
    return members_;
  }

  /// Serializes; `indent` > 0 pretty-prints.
  std::string Dump(int indent = 0) const;

  /// Arrays and objects nested deeper than this fail to parse. A trained
  /// model's saved JSON nests 7 deep; the cap bounds the parser's
  /// recursion on hostile input.
  static constexpr int kMaxParseDepth = 128;

  /// Parses a JSON document. Input nested deeper than kMaxParseDepth is
  /// a kParseError with the byte offset of the first bracket past it.
  static Result<Json> Parse(std::string_view text);

 private:
  /// The shared null `at` and `Get` return for a missing element.
  static const Json& Null();

  void DumpTo(std::string* out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> members_;
};

}  // namespace kgpip

#endif  // KGPIP_UTIL_JSON_H_
