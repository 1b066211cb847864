#include "util/bytes.hpp"

#include <stdexcept>

namespace psf::util {

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  throw std::invalid_argument("from_hex: invalid hex digit");
}
}  // namespace

std::string to_hex(const Bytes& data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0x0f]);
  }
  return out;
}

Bytes from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    throw std::invalid_argument("from_hex: odd-length input");
  }
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(hex_value(hex[i]) << 4 |
                                            hex_value(hex[i + 1])));
  }
  return out;
}

Bytes to_bytes(std::string_view s) { return Bytes(s.begin(), s.end()); }

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += kHexDigits[(c >> 4) & 0xF];
          out += kHexDigits[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string to_string(const Bytes& data) {
  return std::string(data.begin(), data.end());
}

void append(Bytes& dst, const Bytes& src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

void append(Bytes& dst, std::string_view s) {
  dst.insert(dst.end(), s.begin(), s.end());
}

void put_u32_be(Bytes& dst, std::uint32_t v) {
  dst.push_back(static_cast<std::uint8_t>(v >> 24));
  dst.push_back(static_cast<std::uint8_t>(v >> 16));
  dst.push_back(static_cast<std::uint8_t>(v >> 8));
  dst.push_back(static_cast<std::uint8_t>(v));
}

void put_u64_be(Bytes& dst, std::uint64_t v) {
  put_u32_be(dst, static_cast<std::uint32_t>(v >> 32));
  put_u32_be(dst, static_cast<std::uint32_t>(v));
}

std::uint32_t get_u32_be(const Bytes& src, std::size_t offset) {
  if (offset + 4 > src.size()) throw std::out_of_range("get_u32_be");
  return static_cast<std::uint32_t>(src[offset]) << 24 |
         static_cast<std::uint32_t>(src[offset + 1]) << 16 |
         static_cast<std::uint32_t>(src[offset + 2]) << 8 |
         static_cast<std::uint32_t>(src[offset + 3]);
}

std::uint64_t get_u64_be(const Bytes& src, std::size_t offset) {
  return static_cast<std::uint64_t>(get_u32_be(src, offset)) << 32 |
         get_u32_be(src, offset + 4);
}

bool equal_ct(const Bytes& a, const Bytes& b) {
  if (a.size() != b.size()) return false;
  return equal_ct(a.data(), b.data(), a.size());
}

bool equal_ct(const std::uint8_t* a, const std::uint8_t* b, std::size_t len) {
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < len; ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

}  // namespace psf::util
