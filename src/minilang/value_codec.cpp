#include "minilang/value_codec.hpp"

#include <algorithm>

namespace psf::minilang {

namespace {

enum Tag : std::uint8_t {
  kTagNull = 0,
  kTagFalse = 1,
  kTagTrue = 2,
  kTagInt = 3,
  kTagString = 4,
  kTagBytes = 5,
  kTagList = 6,
  kTagMap = 7,
};

void encode_into(const Value& v, util::Bytes& out) {
  if (v.is_null()) {
    out.push_back(kTagNull);
  } else if (v.is_bool()) {
    out.push_back(v.as_bool() ? kTagTrue : kTagFalse);
  } else if (v.is_int()) {
    out.push_back(kTagInt);
    util::put_u64_be(out, static_cast<std::uint64_t>(v.as_int()));
  } else if (v.is_string()) {
    out.push_back(kTagString);
    util::put_u32_be(out, static_cast<std::uint32_t>(v.as_string().size()));
    util::append(out, v.as_string());
  } else if (v.is_bytes()) {
    out.push_back(kTagBytes);
    util::put_u32_be(out, static_cast<std::uint32_t>(v.as_bytes().size()));
    util::append(out, v.as_bytes());
  } else if (v.is_list()) {
    out.push_back(kTagList);
    util::put_u32_be(out, static_cast<std::uint32_t>(v.as_list()->size()));
    for (const auto& item : *v.as_list()) encode_into(item, out);
  } else if (v.is_map()) {
    out.push_back(kTagMap);
    util::put_u32_be(out, static_cast<std::uint32_t>(v.as_map()->size()));
    for (const auto& [k, item] : *v.as_map()) {
      util::put_u32_be(out, static_cast<std::uint32_t>(k.size()));
      util::append(out, k);
      encode_into(item, out);
    }
  } else {
    throw EvalError("cannot serialize object reference of type " +
                    v.as_object()->type_name() +
                    " (use an rmi or switchboard interface instead)");
  }
}

// Mirror of encode_into: the size-precompute pass. Must stay in lockstep
// with the encoder so reserve(size_of(v)) is exact.
std::size_t size_of(const Value& v) {
  if (v.is_null() || v.is_bool()) return 1;
  if (v.is_int()) return 1 + 8;
  if (v.is_string()) return 1 + 4 + v.as_string().size();
  if (v.is_bytes()) return 1 + 4 + v.as_bytes().size();
  if (v.is_list()) {
    std::size_t n = 1 + 4;
    for (const auto& item : *v.as_list()) n += size_of(item);
    return n;
  }
  if (v.is_map()) {
    std::size_t n = 1 + 4;
    for (const auto& [k, item] : *v.as_map()) n += 4 + k.size() + size_of(item);
    return n;
  }
  throw EvalError("cannot serialize object reference of type " +
                  v.as_object()->type_name() +
                  " (use an rmi or switchboard interface instead)");
}

// Smallest encodings: a list item is at least a tag byte, a map entry a
// key length plus a tag byte. A count that the remaining input cannot hold
// at that size is corrupt.
constexpr std::size_t kMinItemBytes = 1;
constexpr std::size_t kMinEntryBytes = 4 + 1;
constexpr std::size_t kMaxTrustedReserve = 16;

struct Reader {
  const util::Bytes& data;
  std::size_t pos = 0;

  bool fail = false;

  bool can_hold(std::uint32_t count, std::size_t min_bytes) const {
    return static_cast<std::size_t>(count) <= (data.size() - pos) / min_bytes;
  }

  std::uint8_t u8() {
    if (pos >= data.size()) {
      fail = true;
      return 0;
    }
    return data[pos++];
  }
  std::uint32_t u32() {
    if (pos + 4 > data.size()) {
      fail = true;
      return 0;
    }
    const std::uint32_t v = util::get_u32_be(data, pos);
    pos += 4;
    return v;
  }
  std::uint64_t u64() {
    if (pos + 8 > data.size()) {
      fail = true;
      return 0;
    }
    const std::uint64_t v = util::get_u64_be(data, pos);
    pos += 8;
    return v;
  }
  std::string str(std::uint32_t n) {
    if (pos + n > data.size()) {
      fail = true;
      return "";
    }
    std::string s(data.begin() + static_cast<std::ptrdiff_t>(pos),
                  data.begin() + static_cast<std::ptrdiff_t>(pos + n));
    pos += n;
    return s;
  }
  util::Bytes raw(std::uint32_t n) {
    if (pos + n > data.size()) {
      fail = true;
      return {};
    }
    util::Bytes b(data.begin() + static_cast<std::ptrdiff_t>(pos),
                  data.begin() + static_cast<std::ptrdiff_t>(pos + n));
    pos += n;
    return b;
  }
};

Value decode_one(Reader& r, int depth) {
  if (depth > 64 || r.fail) {
    r.fail = true;
    return Value::null();
  }
  switch (r.u8()) {
    case kTagNull: return Value::null();
    case kTagFalse: return Value::boolean(false);
    case kTagTrue: return Value::boolean(true);
    case kTagInt: return Value::integer(static_cast<std::int64_t>(r.u64()));
    case kTagString: {
      const std::uint32_t n = r.u32();
      return Value::string(r.str(n));
    }
    case kTagBytes: {
      const std::uint32_t n = r.u32();
      return Value::bytes(r.raw(n));
    }
    case kTagList: {
      const std::uint32_t n = r.u32();
      if (!r.can_hold(n, kMinItemBytes)) {
        r.fail = true;
        return Value::null();
      }
      // A count is untrusted until its items decode: reserve at most a few
      // slots, so nested headers cannot multiply one claim per level.
      ValueList items;
      items.reserve(std::min<std::size_t>(n, kMaxTrustedReserve));
      for (std::uint32_t i = 0; i < n && !r.fail; ++i) {
        items.push_back(decode_one(r, depth + 1));
      }
      return Value::list(std::move(items));
    }
    case kTagMap: {
      const std::uint32_t n = r.u32();
      if (!r.can_hold(n, kMinEntryBytes)) {
        r.fail = true;
        return Value::null();
      }
      ValueMap items;
      for (std::uint32_t i = 0; i < n && !r.fail; ++i) {
        const std::uint32_t klen = r.u32();
        std::string key = r.str(klen);
        items[std::move(key)] = decode_one(r, depth + 1);
      }
      return Value::map(std::move(items));
    }
    default:
      r.fail = true;
      return Value::null();
  }
}

}  // namespace

util::Bytes encode_value(const Value& value) {
  util::Bytes out;
  out.reserve(size_of(value));
  encode_into(value, out);
  return out;
}

std::size_t encoded_size(const Value& value) { return size_of(value); }

void encode_value_into(const Value& value, util::Bytes& out) {
  encode_into(value, out);
}

util::Result<Value> decode_value(const util::Bytes& data) {
  Reader r{data};
  Value v = decode_one(r, 0);
  if (r.fail || r.pos != data.size()) {
    return util::Result<Value>::failure("codec", "malformed value encoding");
  }
  return v;
}

util::Bytes encode_values(const std::vector<Value>& values) {
  util::Bytes out;
  out.reserve(encoded_values_size(values));
  util::put_u32_be(out, static_cast<std::uint32_t>(values.size()));
  for (const auto& v : values) encode_into(v, out);
  return out;
}

std::size_t encoded_values_size(const std::vector<Value>& values) {
  std::size_t n = 4;
  for (const auto& v : values) n += size_of(v);
  return n;
}

void encode_values_into(const std::vector<Value>& values, util::Bytes& out) {
  util::put_u32_be(out, static_cast<std::uint32_t>(values.size()));
  for (const auto& v : values) encode_into(v, out);
}

util::Result<std::vector<Value>> decode_values(const util::Bytes& data) {
  Reader r{data};
  const std::uint32_t n = r.u32();
  if (r.fail || !r.can_hold(n, kMinItemBytes)) {
    return util::Result<std::vector<Value>>::failure("codec", "bad count");
  }
  std::vector<Value> out;
  out.reserve(std::min<std::size_t>(n, kMaxTrustedReserve));
  for (std::uint32_t i = 0; i < n && !r.fail; ++i) {
    out.push_back(decode_one(r, 0));
  }
  if (r.fail || r.pos != data.size()) {
    return util::Result<std::vector<Value>>::failure("codec",
                                                     "malformed value list");
  }
  return out;
}

}  // namespace psf::minilang
