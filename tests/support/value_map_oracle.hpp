// Reference model for MiniLang's flat ValueMap: a std::map keyed the same
// way, plus a hand-written map encoding that takes its entries in whatever
// order it is given. The oracle test drives both maps through the same
// seeded operations; the codec and image tests use map_encoding to build
// the non-canonical inputs (duplicate or out-of-order keys) the production
// encoder can never write.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "minilang/value.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace psf::minilang::oracle {

using MapModel = std::map<std::string, Value>;
using MapEntries = std::vector<std::pair<std::string, Value>>;

/// Tag 7, u32 count, then each entry as u32 key length | key | value
/// encoding, in the order given: the wire form of a map, written without
/// ValueMap.
util::Bytes map_encoding(const MapEntries& entries);

/// map_encoding of the model's entries in its (sorted) order.
util::Bytes map_encoding(const MapModel& model);

/// A key from a small alphabet that collides often and exercises byte
/// order: the empty key, shared prefixes, and bytes on both sides of 0x80.
std::string random_key(util::Rng& rng);

/// A small value: null, an int, a string, or a one-item list.
Value random_scalar(util::Rng& rng);

/// Deep equality of two models (Value::equals on the values).
bool models_equal(const MapModel& a, const MapModel& b);

/// Empty when `map` holds exactly the model's entries in the model's
/// order; otherwise a description of the first difference.
std::string first_difference(const ValueMap& map, const MapModel& model);

}  // namespace psf::minilang::oracle
