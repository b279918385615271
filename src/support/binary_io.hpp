// Binary cache files: checksummed sections and atomic replacement.
//
// A BinaryWriter writes raw values and folds every byte into a running
// FNV-1a hash; checksum() appends that hash as the section's trailer. A
// BinaryReader folds the bytes it reads the same way and checksum()
// requires the stored trailer to match, so a flipped bit anywhere in a
// section fails the load with support::InvalidArgument instead of loading
// a different model. Nothing is buffered beyond what the caller reads.
// Values are native-endian: a same-machine cache, not an interchange
// format.
#pragma once

#include <cstdint>
#include <functional>
#include <istream>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "support/check.hpp"
#include "support/hash.hpp"

namespace support {

class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream& out) : out_(out) {}

  template <typename T>
  void pod(const T& value) {
    bytes(&value, sizeof(T));
  }

  /// A length-prefixed array.
  template <typename T>
  void array(std::span<const T> values) {
    pod<std::uint64_t>(values.size());
    bytes(values.data(), values.size_bytes());
  }

  /// Appends the hash of everything written so far.
  void checksum() {
    const std::uint64_t hash = hash_;
    out_.write(reinterpret_cast<const char*>(&hash), sizeof hash);
  }

 private:
  void bytes(const void* data, std::size_t size) {
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(size));
    hash_ = fnv1a64(data, size, hash_);
  }

  std::ostream& out_;
  std::uint64_t hash_ = kFnv1aBasis;
};

class BinaryReader {
 public:
  /// `what` names the stream in error messages, e.g. "MDP stream".
  BinaryReader(std::istream& in, const char* what) : in_(in), what_(what) {}

  template <typename T>
  T pod() {
    T value{};
    bytes(&value, sizeof(T));
    return value;
  }

  /// Reads a length-prefixed array into `values`. The length is checked
  /// against the rest of the stream before anything is allocated, so a
  /// corrupt length field fails the load instead of requesting gigabytes.
  template <typename T>
  void array(std::vector<T>& values) {
    const auto size = pod<std::uint64_t>();
    SM_REQUIRE(size <= bytes_left() / sizeof(T), "implausible array length ",
               size, " in ", what_);
    values.resize(size);
    bytes(values.data(), size * sizeof(T));
  }

  /// Reads the trailer and requires it to equal the hash of everything
  /// read so far.
  void checksum() {
    std::uint64_t stored = 0;
    in_.read(reinterpret_cast<char*>(&stored), sizeof stored);
    SM_REQUIRE(in_.good(), "truncated ", what_);
    SM_REQUIRE(stored == hash_, "checksum mismatch in ", what_);
  }

 private:
  void bytes(void* data, std::size_t size) {
    in_.read(static_cast<char*>(data), static_cast<std::streamsize>(size));
    SM_REQUIRE(in_.good(), "truncated ", what_);
    hash_ = fnv1a64(data, size, hash_);
  }

  /// Bytes between the read position and the end of the stream. Measured
  /// by seeking: in_avail() would count only what a file stream buffered.
  std::uint64_t bytes_left() {
    const std::streampos here = in_.tellg();
    in_.seekg(0, std::ios::end);
    const std::streampos end = in_.tellg();
    in_.seekg(here);
    SM_REQUIRE(here >= 0 && end >= here && in_.good(), "unseekable ", what_);
    return static_cast<std::uint64_t>(end - here);
  }

  std::istream& in_;
  const char* what_;
  std::uint64_t hash_ = kFnv1aBasis;
};

/// Writes the file at `path` through `write`, into a unique temp file
/// beside it that is then renamed into place: concurrent writers (separate
/// processes sharing a directory included) and crashes leave the old file
/// or a complete new one. Returns false, leaving `path` as it was, when
/// any step fails.
bool write_atomically(const std::string& path,
                      const std::function<void(std::ostream&)>& write);

}  // namespace support
