// The integer text forms the persisted files use: plain decimal and
// 16-digit lowercase hex. Every parser here rejects what it cannot read
// exactly — a sign, a stray character, an empty string or a value past
// 2^64-1 — instead of wrapping or truncating.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace wormsim::util {

/// A plain decimal integer: one or more digits, no sign, no other text,
/// and no value above 2^64-1.
inline std::optional<std::uint64_t> parse_u64(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (v > (std::numeric_limits<std::uint64_t>::max() - digit) / 10)
      return std::nullopt;
    v = v * 10 + digit;
  }
  return v;
}

/// `v` as exactly 16 lowercase hex digits (fingerprints and checksums).
inline std::string hex16(std::uint64_t v) {
  std::string out(16, '0');
  for (std::size_t i = 16; i-- > 0; v >>= 4)
    out[i] = "0123456789abcdef"[v & 15];
  return out;
}

/// The inverse of hex16: exactly 16 lowercase hex digits.
inline std::optional<std::uint64_t> parse_hex16(std::string_view text) {
  if (text.size() != 16) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : text) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return std::nullopt;
    }
  }
  return v;
}

}  // namespace wormsim::util
