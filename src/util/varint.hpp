// LEB128 varints: the one integer encoding of the deadlock search's state
// keys (the simulator's per-message segments and the search's spent-delay
// suffix). Seven value bits per byte, low group first, high bit set on
// every byte but the last — so each encoding is self-delimiting and no
// encoding is a prefix of another, which keeps a concatenation of varints
// uniquely decodable (two keys are equal iff their field sequences are).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace wormsim::util {

/// Longest encoding of a 32-bit value (ceil(32 / 7)).
inline constexpr std::size_t kMaxVarint32Bytes = 5;

/// Writes `v` at `p` and returns one past the last byte written. `p` must
/// have room for kMaxVarint32Bytes.
inline char* put_varint(char* p, std::uint32_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<char>(v | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<char>(v);
  return p;
}

/// Appends `v` to `out`.
inline void append_varint(std::string& out, std::uint32_t v) {
  char buf[kMaxVarint32Bytes];
  out.append(buf, put_varint(buf, v));
}

}  // namespace wormsim::util
