// Byte-buffer utilities shared by every module: hex codecs, string
// conversion, JSON string escaping, and little/big-endian integer packing
// used by the wire formats in crypto/, drbac/, and switchboard/.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace psf::util {

using Bytes = std::vector<std::uint8_t>;

/// Encode `data` as lowercase hex.
std::string to_hex(const Bytes& data);

/// Decode lowercase/uppercase hex; throws std::invalid_argument on bad input.
Bytes from_hex(std::string_view hex);

/// Copy the raw characters of `s` into a byte buffer.
Bytes to_bytes(std::string_view s);

/// Interpret `data` as a UTF-8/ASCII string.
std::string to_string(const Bytes& data);

/// The body of a JSON string literal holding `text` (no surrounding
/// quotes): `"`, `\`, LF, CR and TAB get their short escapes, every other
/// byte below 0x20 becomes `\u00XX`, and all other bytes (UTF-8 included)
/// pass through unchanged.
std::string json_escape(std::string_view text);

/// Append `src` to `dst`.
void append(Bytes& dst, const Bytes& src);

/// Append the raw characters of `s` to `dst`.
void append(Bytes& dst, std::string_view s);

/// Append `v` in big-endian order (used by signature payloads so that the
/// serialized form is platform independent).
void put_u32_be(Bytes& dst, std::uint32_t v);
void put_u64_be(Bytes& dst, std::uint64_t v);

/// Read big-endian integers starting at `offset`; throws std::out_of_range
/// if the buffer is too short.
std::uint32_t get_u32_be(const Bytes& src, std::size_t offset);
std::uint64_t get_u64_be(const Bytes& src, std::size_t offset);

/// Constant-time-ish equality (length leak only); for MAC comparison.
bool equal_ct(const Bytes& a, const Bytes& b);

/// Raw-pointer form for comparing spans inside larger buffers (e.g. a MAC
/// tail within a sealed frame) without slicing out copies.
bool equal_ct(const std::uint8_t* a, const std::uint8_t* b, std::size_t len);

}  // namespace psf::util
