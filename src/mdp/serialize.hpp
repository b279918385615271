// Binary (de)serialization of built MDPs.
//
// Large configurations (d=4, f=2 is ~1.2M states / 10M transitions) take
// longer to enumerate than small ones take to solve; caching the frozen
// model lets repeated analyses (β sweeps at different ε, simulator runs,
// exports) skip reconstruction. The format is a size-prefixed raw dump of
// the Mdp's own CSR arrays, written and read as they are, so a loaded
// model is bit-identical to the saved one, followed by an FNV-1a checksum
// of every byte before it (support::BinaryWriter). It is a same-machine
// cache, not an interchange format (native endianness). A load validates
// the magic, checks every array length against the bytes left in the
// stream before allocating, verifies the checksum and re-checks the model
// invariants; streams written in an older layout fail the magic check, so
// a cache holding one is rebuilt.
#pragma once

#include <iosfwd>

#include "mdp/mdp.hpp"

namespace mdp {

/// Writes `m` to a binary stream (open in std::ios::binary).
void save_binary(const Mdp& m, std::ostream& out);

/// Reads a model written by save_binary from a seekable stream. Throws
/// support::InvalidArgument on a bad magic, a length longer than the rest
/// of the stream, a checksum mismatch, or a structurally inconsistent
/// payload.
Mdp load_binary(std::istream& in);

}  // namespace mdp
