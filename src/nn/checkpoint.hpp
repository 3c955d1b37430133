// Dense model checkpointing: saves every parameter tensor by name so a
// training run can be resumed or a baseline model shipped uncompressed.
// Complements core::SparseWeightStore, which is the *compressed* format.
//
// Since format v1, checkpoints ride in the shared checksummed container
// (util/container.hpp, kind "DBCP"): one section per parameter, so a flipped
// byte or truncation is reported with the exact parameter name and file
// offset. File saves go through util::atomic_write_file — a crash mid-save
// leaves the previous checkpoint intact. All load failures raise
// util::IoError (see docs/ROBUSTNESS.md).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "nn/module.hpp"

namespace dropback::nn {

/// Writes (name, tensor) for every parameter of the list.
void save_checkpoint(std::ostream& out,
                     const std::vector<Parameter*>& params);

/// Restores a checkpoint into a parameter list with identical names/shapes
/// in identical order. Throws util::IoError naming the offending parameter
/// (name, ordinal, byte offset) on any mismatch or corruption, and on
/// trailing bytes after the checkpoint (an over-long input is as suspicious
/// as a truncated one).
void load_checkpoint(std::istream& in, const std::vector<Parameter*>& params);

/// Atomic (temp + fsync + rename) file save.
void save_checkpoint_file(const std::string& path,
                          const std::vector<Parameter*>& params);
void load_checkpoint_file(const std::string& path,
                          const std::vector<Parameter*>& params);

}  // namespace dropback::nn
