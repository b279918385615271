// FNV-1a hashing: job-key and hash-ring fingerprints, and the checksums
// of the on-disk result store and model cache.
#pragma once

#include <cstddef>
#include <cstdint>

namespace support {

inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ULL;

/// FNV-1a 64-bit over `size` bytes starting at `data`, continuing from
/// `basis` (pass a previous result to hash a sequence of buffers).
inline std::uint64_t fnv1a64(const void* data, std::size_t size,
                             std::uint64_t basis = kFnv1aBasis) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = basis;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace support
