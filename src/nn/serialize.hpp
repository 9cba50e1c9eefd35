// Trained-parameter serialization.
//
// Stores a network's Network::state() — every parameter group in layer
// order, then each BatchNorm's running mean and variance — as a small
// binary blob, so trained models survive across processes — e.g. train
// once with examples/lenet_pipeline, then re-evaluate under different SC
// configurations without retraining. The format is structure-agnostic:
// loading requires a network built with the same topology (group count
// and sizes are verified).
//
// Layout (little-endian):
//   magic   "ACST"            4 bytes
//   version u32               currently 2 (version 1 lacked the BatchNorm
//                             statistics and is refused)
//   groups  u32
//   per state() array: count u64, then count * float32
#pragma once

#include <iosfwd>
#include <string>

#include "nn/network.hpp"

namespace acoustic::nn {

/// Writes @p net's state() to @p out. Throws std::runtime_error on
/// stream failure.
void save_parameters(Network& net, std::ostream& out);

/// Reads parameters into @p net. Throws std::runtime_error on format or
/// shape mismatch.
void load_parameters(Network& net, std::istream& in);

/// File convenience wrappers.
void save_parameters(Network& net, const std::string& path);
void load_parameters(Network& net, const std::string& path);

}  // namespace acoustic::nn
