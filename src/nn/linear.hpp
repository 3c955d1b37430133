// Fully-connected layer: y = x · Wᵀ + b, W[out, in].
//
// Weights use the paper's LeCun scaled-normal init, regenerated from
// (seed, index) by the counter hash; biases are constant-zero (also
// regenerable, so DropBack can prune them too).
#pragma once

#include "nn/module.hpp"

namespace dropback::nn {

class Linear : public Module {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features,
         std::uint64_t seed, bool bias = true);

  autograd::Variable forward(const autograd::Variable& x) override;
  std::string name() const override { return "Linear"; }

  Parameter& weight() { return *weight_; }
  Parameter* bias() { return bias_; }
  std::int64_t in_features() const { return in_features_; }
  std::int64_t out_features() const { return out_features_; }

 private:
  std::int64_t in_features_;
  std::int64_t out_features_;
  Parameter* weight_;
  Parameter* bias_;  // nullptr if bias disabled
};

}  // namespace dropback::nn
