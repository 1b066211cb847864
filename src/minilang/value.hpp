// MiniLang runtime values. Lists and maps have reference semantics (shared
// pointers), matching the Java object model the paper's components assume.
// Object values hold a CallTarget so that a field can transparently contain
// either a local instance or a remote stub — this is what lets VIG rebind a
// view's `rmi` / `switchboard` interfaces without touching method bodies.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "util/bytes.hpp"

namespace psf::minilang {

class Value;
using ValueList = std::vector<Value>;
using ValueMap = std::map<std::string, Value>;

/// Anything a method can be invoked on: local instances, remote stubs.
class CallTarget {
 public:
  virtual ~CallTarget() = default;
  virtual Value call(const std::string& method, std::vector<Value> args) = 0;
  virtual std::string type_name() const = 0;
};

class Value {
 public:
  Value() : data_(std::monostate{}) {}
  static Value null() { return Value(); }
  static Value boolean(bool b) { return Value(Data(b)); }
  static Value integer(std::int64_t i) { return Value(Data(i)); }
  static Value string(std::string s) { return Value(Data(std::move(s))); }
  static Value bytes(util::Bytes b) { return Value(Data(std::move(b))); }
  static Value list(ValueList items = {});
  static Value map(ValueMap items = {});
  static Value object(std::shared_ptr<CallTarget> target) {
    return Value(Data(std::move(target)));
  }

  bool is_null() const { return std::holds_alternative<std::monostate>(data_); }
  bool is_bool() const { return std::holds_alternative<bool>(data_); }
  bool is_int() const { return std::holds_alternative<std::int64_t>(data_); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }
  bool is_bytes() const { return std::holds_alternative<util::Bytes>(data_); }
  bool is_list() const {
    return std::holds_alternative<std::shared_ptr<ValueList>>(data_);
  }
  bool is_map() const {
    return std::holds_alternative<std::shared_ptr<ValueMap>>(data_);
  }
  bool is_object() const {
    return std::holds_alternative<std::shared_ptr<CallTarget>>(data_);
  }

  // Accessors throw EvalError (std::runtime_error) on type mismatch.
  bool as_bool() const;
  std::int64_t as_int() const;
  const std::string& as_string() const;
  const util::Bytes& as_bytes() const;
  const std::shared_ptr<ValueList>& as_list() const;
  const std::shared_ptr<ValueMap>& as_map() const;
  const std::shared_ptr<CallTarget>& as_object() const;

  /// Truthiness: null/false/0/""/empty containers are false.
  bool truthy() const;

  /// Structural equality for data; identity for objects.
  bool equals(const Value& other) const;

  /// Human-readable rendering for diagnostics and the examples' output.
  std::string to_display_string() const;

  std::string type_name() const;

 private:
  using Data = std::variant<std::monostate, bool, std::int64_t, std::string,
                            util::Bytes, std::shared_ptr<ValueList>,
                            std::shared_ptr<ValueMap>,
                            std::shared_ptr<CallTarget>>;
  explicit Value(Data data) : data_(std::move(data)) {}

  Data data_;
};

/// Error thrown by the engine and value accessors.
class EvalError : public std::runtime_error {
 public:
  explicit EvalError(const std::string& message)
      : std::runtime_error(message) {}
};

}  // namespace psf::minilang
