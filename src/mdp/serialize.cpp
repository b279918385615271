#include "mdp/serialize.hpp"

#include <istream>
#include <ostream>
#include <span>

#include "support/check.hpp"

namespace mdp {

namespace {

constexpr std::uint64_t kMagic = 0x53454c4d44503032ULL;  // "SELMDP02"

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  SM_REQUIRE(in.good(), "truncated MDP stream");
  return value;
}

template <typename T>
void write_vector(std::ostream& out, std::span<const T> v) {
  write_pod<std::uint64_t>(out, v.size());
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size_bytes()));
}

/// Bytes between the read position and the end of the stream. Measured by
/// seeking: in_avail() would count only what a file stream has buffered.
std::uint64_t bytes_left(std::istream& in) {
  const std::streampos here = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.seekg(here);
  SM_REQUIRE(here >= 0 && end >= here && in.good(), "unseekable MDP stream");
  return static_cast<std::uint64_t>(end - here);
}

/// Reads a length-prefixed array into `v`. The length is checked against
/// the rest of the stream before anything is allocated, so a corrupt
/// length field fails the load instead of requesting gigabytes.
template <typename T>
void read_vector(std::istream& in, std::vector<T>& v) {
  const auto size = read_pod<std::uint64_t>(in);
  SM_REQUIRE(size <= bytes_left(in) / sizeof(T),
             "implausible array length in MDP stream: ", size);
  v.resize(size);
  in.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(size * sizeof(T)));
  SM_REQUIRE(in.good(), "truncated MDP stream");
}

}  // namespace

void save_binary(const Mdp& m, std::ostream& out) {
  write_pod(out, kMagic);
  write_pod<std::uint32_t>(out, m.initial_);
  write_pod<std::uint64_t>(out, m.num_states());
  write_vector<ActionId>(out, m.action_begin_);
  write_vector<std::uint32_t>(out, m.action_label_);
  write_vector<std::uint32_t>(out, m.tr_begin_);
  write_vector<StateId>(out, m.targets_);
  write_vector<double>(out, m.probs_);
  write_vector<RewardCounts>(out, m.counts_);
}

Mdp load_binary(std::istream& in) {
  SM_REQUIRE(read_pod<std::uint64_t>(in) == kMagic,
             "not an MDP binary stream (bad magic)");
  Mdp m;
  m.initial_ = read_pod<std::uint32_t>(in);
  const auto num_states = read_pod<std::uint64_t>(in);
  read_vector(in, m.action_begin_);
  SM_REQUIRE(m.action_begin_.size() - 1 == num_states,
             "state count mismatch in MDP stream");
  read_vector(in, m.action_label_);
  read_vector(in, m.tr_begin_);
  read_vector(in, m.targets_);
  read_vector(in, m.probs_);
  read_vector(in, m.counts_);
  // The builder's checks (stochastic rows, in-range targets, non-empty
  // states and actions) plus consistent offset ladders. The rows were
  // renormalized when the model was built, so they load as stored.
  m.freeze(/*renormalize=*/false);
  return m;
}

}  // namespace mdp
