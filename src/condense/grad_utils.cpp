#include "deco/condense/grad_utils.h"

#include <cmath>

#include "deco/tensor/check.h"

namespace deco::condense {

GradVec clone_grads(nn::Module& m) {
  GradVec out;
  for (nn::ParamRef& p : m.parameters()) out.push_back(*p.grad);
  return out;
}

void perturb_params(nn::Module& m, const GradVec& direction, float eps) {
  auto params = m.parameters();
  DECO_CHECK(params.size() == direction.size(),
             "perturb_params: direction length mismatch");
  for (size_t i = 0; i < params.size(); ++i) {
    DECO_CHECK(params[i].value->numel() == direction[i].numel(),
               "perturb_params: shape mismatch at " + params[i].name);
    params[i].value->add_scaled_(direction[i], eps);
  }
}

float global_norm(const GradVec& g) {
  double acc = 0.0;
  for (const Tensor& t : g) acc += static_cast<double>(t.squared_norm());
  return static_cast<float>(std::sqrt(acc));
}

}  // namespace deco::condense
