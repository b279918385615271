// Caching built selfish-mining models on disk.
//
// Wraps mdp::save_binary/load_binary with the attack parameters and the
// state dictionary, so a reloaded SelfishModel is indistinguishable from a
// freshly built one. Both sections end in an FNV-1a checksum of their
// bytes (support::BinaryWriter), so a corrupted file fails the load and
// is rebuilt instead of yielding a different model. Loading also
// validates that the cached parameters match the requested ones exactly.
#pragma once

#include <iosfwd>
#include <string>

#include "selfish/build.hpp"

namespace selfish {

/// Writes the full model (params + state keys + MDP) to a binary stream.
void save_model(const SelfishModel& model, std::ostream& out);

/// Reads a model written by save_model; `expected` must match the cached
/// parameters exactly. Throws support::InvalidArgument on a mismatch or
/// on any corruption of the stream.
SelfishModel load_model(std::istream& in, const AttackParams& expected);

/// Convenience: returns the cached model at `path` if present and valid;
/// otherwise builds it, writes the cache (best effort, through a temp
/// file renamed into place) and returns it.
SelfishModel build_or_load_model(const AttackParams& params,
                                 const std::string& path);

}  // namespace selfish
