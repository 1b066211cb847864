#include "support/value_map_oracle.hpp"

#include "minilang/value_codec.hpp"

namespace psf::minilang::oracle {

util::Bytes map_encoding(const MapEntries& entries) {
  util::Bytes out{7};
  util::put_u32_be(out, static_cast<std::uint32_t>(entries.size()));
  for (const auto& [key, value] : entries) {
    util::put_u32_be(out, static_cast<std::uint32_t>(key.size()));
    util::append(out, key);
    encode_value_into(value, out);
  }
  return out;
}

util::Bytes map_encoding(const MapModel& model) {
  return map_encoding(MapEntries(model.begin(), model.end()));
}

std::string random_key(util::Rng& rng) {
  static const char* const kKeys[] = {"",   "a",    "ab", "b",  "ba",
                                      "\x7f", "\x80", "\xff", "k1", "k10"};
  return kKeys[rng.next_below(sizeof(kKeys) / sizeof(kKeys[0]))];
}

Value random_scalar(util::Rng& rng) {
  switch (rng.next_below(4)) {
    case 0: return Value::null();
    case 1: return Value::integer(static_cast<std::int64_t>(rng.next_below(3)));
    case 2: return Value::string(rng.next_below(2) == 0 ? "x" : "y");
    default:
      return Value::list(
          {Value::integer(static_cast<std::int64_t>(rng.next_below(2)))});
  }
}

bool models_equal(const MapModel& a, const MapModel& b) {
  if (a.size() != b.size()) return false;
  for (auto x = a.begin(), y = b.begin(); x != a.end(); ++x, ++y) {
    if (x->first != y->first || !x->second.equals(y->second)) return false;
  }
  return true;
}

std::string first_difference(const ValueMap& map, const MapModel& model) {
  if (map.size() != model.size()) {
    return "size " + std::to_string(map.size()) + " vs model " +
           std::to_string(model.size());
  }
  auto got = map.begin();
  for (const auto& [key, value] : model) {
    if (got->first != key) {
      return "key '" + got->first + "' where the model has '" + key + "'";
    }
    if (!got->second.equals(value)) {
      return "value under '" + key + "': " + got->second.to_display_string() +
             " vs model " + value.to_display_string();
    }
    ++got;
  }
  return "";
}

}  // namespace psf::minilang::oracle
