#include "deco/nn/checkpoint.h"

#include <cstdint>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "deco/tensor/check.h"

namespace deco::nn {

namespace {
constexpr char kMagic[8] = {'D', 'E', 'C', 'O', 'C', 'K', 'P', 'T'};
}  // namespace

void write_params(std::ostream& os, Module& model, DType dtype,
                  int64_t block) {
  const std::vector<ParamRef> params = model.parameters();
  write_pod(os, static_cast<uint32_t>(params.size()));
  for (const ParamRef& p : params) {
    write_string(os, p.name);
    // fp32 keeps the legacy v2 record so default files stay byte-identical;
    // other dtypes emit dtype-tagged v3 records.
    if (dtype == DType::kF32)
      write_tensor(os, *p.value);
    else
      write_tensor(os, *p.value, dtype, block);
  }
}

std::vector<Tensor> read_params(std::istream& is, Module& model,
                                const std::string& who) {
  const std::vector<ParamRef> params = model.parameters();
  const uint32_t count = read_pod<uint32_t>(is);
  DECO_CHECK(count == params.size(),
             who + ": parameter count mismatch (file " +
                 std::to_string(count) + ", model " +
                 std::to_string(params.size()) + ")");
  std::vector<Tensor> staged;
  staged.reserve(params.size());
  for (const ParamRef& p : params) {
    const std::string name = read_string(is);
    DECO_CHECK(name == p.name, who + ": parameter order mismatch: expected " +
                                   p.name + ", found " + name);
    Tensor t = read_tensor(is);
    DECO_CHECK(t.shape() == p.value->shape(),
               who + ": shape mismatch for " + p.name);
    staged.push_back(std::move(t));
  }
  return staged;
}

void assign_params(Module& model, std::vector<Tensor> staged) {
  const std::vector<ParamRef> params = model.parameters();
  DECO_CHECK(staged.size() == params.size(),
             "assign_params: staged tensor count mismatch");
  for (size_t i = 0; i < params.size(); ++i)
    *params[i].value = std::move(staged[i]);
}

std::vector<ParamInfo> skip_params(std::istream& is) {
  const uint32_t count = read_pod<uint32_t>(is);
  std::vector<ParamInfo> out;
  for (uint32_t i = 0; i < count; ++i) {
    ParamInfo info;
    info.name = read_string(is);
    info.tensor = skip_tensor(is);
    out.push_back(std::move(info));
  }
  return out;
}

void save_checkpoint(const std::string& path, Module& model, DType dtype,
                     int64_t block) {
  // Serialize to memory first, then write atomically: a crash mid-save must
  // never clobber the previous on-disk checkpoint.
  std::ostringstream os(std::ios::binary);
  os.write(kMagic, sizeof(kMagic));
  write_params(os, model, dtype, block);
  DECO_CHECK(static_cast<bool>(os), "save_checkpoint: serialization failed");
  atomic_write_file(path, os.str());
}

void load_checkpoint(const std::string& path, Module& model) {
  std::ifstream is(path, std::ios::binary);
  DECO_CHECK(is.is_open(), "load_checkpoint: cannot open " + path);
  DECO_CHECK(read_magic(is) == std::string(kMagic, sizeof(kMagic)),
             "load_checkpoint: not a DECO checkpoint");
  // Stage every tensor and validate the full file before touching the model:
  // a truncated or mismatched checkpoint must not leave the model half-loaded.
  assign_params(model, read_params(is, model, "load_checkpoint"));
}

std::vector<ParamInfo> read_checkpoint_info(std::istream& is) {
  DECO_CHECK(read_magic(is) == std::string(kMagic, sizeof(kMagic)),
             "read_checkpoint_info: not a DECO checkpoint");
  return skip_params(is);
}

}  // namespace deco::nn
