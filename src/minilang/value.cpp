#include "minilang/value.hpp"

#include <algorithm>
#include <sstream>

#include "util/bytes.hpp"

namespace psf::minilang {

Value Value::list(ValueList items) {
  return Value(Data(std::make_shared<ValueList>(std::move(items))));
}

Value Value::map() { return map(ValueMap{}); }

Value Value::map(ValueMap items) {
  return Value(Data(std::make_shared<ValueMap>(std::move(items))));
}

bool Value::as_bool() const {
  if (!is_bool()) throw EvalError("expected bool, got " + type_name());
  return std::get<bool>(data_);
}

std::int64_t Value::as_int() const {
  if (!is_int()) throw EvalError("expected int, got " + type_name());
  return std::get<std::int64_t>(data_);
}

const std::string& Value::as_string() const {
  if (!is_string()) throw EvalError("expected string, got " + type_name());
  return std::get<std::string>(data_);
}

const util::Bytes& Value::as_bytes() const {
  if (!is_bytes()) throw EvalError("expected bytes, got " + type_name());
  return std::get<util::Bytes>(data_);
}

const std::shared_ptr<ValueList>& Value::as_list() const {
  if (!is_list()) throw EvalError("expected list, got " + type_name());
  return std::get<std::shared_ptr<ValueList>>(data_);
}

const std::shared_ptr<ValueMap>& Value::as_map() const {
  if (!is_map()) throw EvalError("expected map, got " + type_name());
  return std::get<std::shared_ptr<ValueMap>>(data_);
}

const std::shared_ptr<CallTarget>& Value::as_object() const {
  if (!is_object()) throw EvalError("expected object, got " + type_name());
  return std::get<std::shared_ptr<CallTarget>>(data_);
}

bool Value::truthy() const {
  if (is_null()) return false;
  if (is_bool()) return as_bool();
  if (is_int()) return as_int() != 0;
  if (is_string()) return !as_string().empty();
  if (is_bytes()) return !as_bytes().empty();
  if (is_list()) return !as_list()->empty();
  if (is_map()) return !as_map()->empty();
  return true;  // objects
}

bool Value::equals(const Value& other) const {
  if (data_.index() != other.data_.index()) return false;
  if (is_null()) return true;
  if (is_bool()) return as_bool() == other.as_bool();
  if (is_int()) return as_int() == other.as_int();
  if (is_string()) return as_string() == other.as_string();
  if (is_bytes()) return as_bytes() == other.as_bytes();
  if (is_list()) {
    const auto& a = *as_list();
    const auto& b = *other.as_list();
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (!a[i].equals(b[i])) return false;
    }
    return true;
  }
  if (is_map()) {
    const auto& a = *as_map();
    const auto& b = *other.as_map();
    if (a.size() != b.size()) return false;
    // Same size and both key-ordered: equal maps pair up entry by entry.
    for (auto x = a.begin(), y = b.begin(); x != a.end(); ++x, ++y) {
      if (x->first != y->first || !x->second.equals(y->second)) return false;
    }
    return true;
  }
  return as_object() == other.as_object();
}

std::string Value::to_display_string() const {
  if (is_null()) return "null";
  if (is_bool()) return as_bool() ? "true" : "false";
  if (is_int()) return std::to_string(as_int());
  if (is_string()) return as_string();
  if (is_bytes()) return "bytes[" + util::to_hex(as_bytes()) + "]";
  if (is_list()) {
    std::ostringstream os;
    os << "[";
    bool first = true;
    for (const auto& v : *as_list()) {
      if (!first) os << ", ";
      first = false;
      os << v.to_display_string();
    }
    os << "]";
    return os.str();
  }
  if (is_map()) {
    std::ostringstream os;
    os << "{";
    bool first = true;
    for (const auto& [k, v] : *as_map()) {
      if (!first) os << ", ";
      first = false;
      os << k << ": " << v.to_display_string();
    }
    os << "}";
    return os.str();
  }
  return "<" + as_object()->type_name() + ">";
}

std::string Value::type_name() const {
  if (is_null()) return "null";
  if (is_bool()) return "bool";
  if (is_int()) return "int";
  if (is_string()) return "string";
  if (is_bytes()) return "bytes";
  if (is_list()) return "list";
  if (is_map()) return "map";
  return "object";
}

namespace {
template <typename It>
It lower_bound_key(It first, It last, const std::string& key) {
  return std::lower_bound(first, last, key,
                          [](const ValueMap::Entry& e, const std::string& k) {
                            return e.first < k;
                          });
}
}  // namespace

ValueMap::const_iterator ValueMap::find(const std::string& key) const {
  auto it = lower_bound_key(entries_.begin(), entries_.end(), key);
  return it != entries_.end() && it->first == key ? it : entries_.end();
}

const Value& ValueMap::at(const std::string& key) const {
  auto it = find(key);
  if (it == end()) {
    throw std::out_of_range("ValueMap::at: no key '" + key + "'");
  }
  return it->second;
}

Value& ValueMap::operator[](const std::string& key) {
  auto it = lower_bound_key(entries_.begin(), entries_.end(), key);
  if (it == entries_.end() || it->first != key) {
    it = entries_.emplace(it, key, Value());
  }
  return it->second;
}

std::size_t ValueMap::erase(const std::string& key) {
  auto it = find(key);
  if (it == entries_.end()) return 0;
  entries_.erase(it);
  return 1;
}

bool ValueMap::append(std::string key, Value value) {
  if (!entries_.empty() && !(entries_.back().first < key)) return false;
  entries_.emplace_back(std::move(key), std::move(value));
  return true;
}

}  // namespace psf::minilang
