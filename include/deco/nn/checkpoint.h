// Model and buffer checkpointing.
//
// Persists every parameter of a Module (in collect_params order, with names
// recorded for integrity checking) so a deployed model — or the condensed
// synthetic buffer, which is the device's distilled memory — can survive
// restarts.
//
// The parameter list is the one encoding of a module's parameters on disk,
// shared by DECOCKPT checkpoints and DECOLSAV learner states (DecoLearner):
//
//   u32 count | count × (string name, tensor record)
//
// fp32 lists hold v2 tensor records (bit-exact, byte-stable); any other
// dtype holds v3 records at (dtype, block) — see deco/tensor/serialize.h.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "deco/nn/module.h"
#include "deco/tensor/dtype.h"
#include "deco/tensor/serialize.h"

namespace deco::nn {

/// One entry of a serialized parameter list, read without its payload.
struct ParamInfo {
  std::string name;
  TensorInfo tensor;
};

/// Writes `model`'s parameter list at storage dtype `dtype`.
void write_params(std::ostream& os, Module& model, DType dtype = DType::kF32,
                  int64_t block = kDefaultQuantBlock);

/// Reads a parameter list and checks its count, names (in order) and shapes
/// against `model` without touching it; returns the staged tensors in
/// parameter order for assign_params. Errors throw deco::Error prefixed
/// with `who` (the calling load, e.g. "load_checkpoint").
std::vector<Tensor> read_params(std::istream& is, Module& model,
                                const std::string& who);

/// Commits tensors staged by read_params into `model`'s parameters.
void assign_params(Module& model, std::vector<Tensor> staged);

/// Reads a parameter list's names and tensor headers, seeking past every
/// payload (inspection tooling).
std::vector<ParamInfo> skip_params(std::istream& is);

/// Saves all parameters of `model` to `path`: magic "DECOCKPT" then the
/// parameter list at `dtype` (runtime.checkpoint_dtype; fp16/int8 shrink the
/// file at the cost of quantized, no longer bit-exact, parameters on load).
/// Each tensor carries its own CRC32 trailer. The write is atomic (temp
/// file + rename), so a crash mid-save preserves the previous checkpoint.
void save_checkpoint(const std::string& path, Module& model,
                     DType dtype = DType::kF32,
                     int64_t block = kDefaultQuantBlock);

/// Loads parameters saved by save_checkpoint into `model`. The module must
/// expose the same parameter names/shapes in the same order; mismatches,
/// truncation and CRC failures throw deco::Error. The whole file is staged
/// and validated before any parameter is overwritten, so a failed load never
/// leaves the model partially updated.
void load_checkpoint(const std::string& path, Module& model);

/// Reads a DECOCKPT checkpoint's parameter names and tensor headers from
/// `is` (positioned at the magic) without loading any payload.
std::vector<ParamInfo> read_checkpoint_info(std::istream& is);

}  // namespace deco::nn
