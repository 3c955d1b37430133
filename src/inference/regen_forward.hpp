// Streaming regenerative inference.
//
// The paper's deployment claim (§1, §6) is that a DropBack-trained model
// needs only k weights' worth of memory *at inference time*: untracked
// weights are recomputed from (seed, index) when the layer that consumes
// them runs, so no dense weight tensor ever exists. The
// SparseWeightStore::materialize() path demonstrates the storage win but
// still allocates dense tensors transiently; this module is the streaming
// engine — one panel of output rows (or channels) at a time is regenerated,
// merge-joined with the sorted tracked-entry overlay, and run through the
// same SIMD GEMM as the dense layers.
//
// Outputs are bitwise the dense forward's, NaN and ±inf inputs included
// (memcmp in tests/inference_test.cpp): RegenLinear = matmul_nt +
// add_row_vector, RegenConv2d = conv2d, RegenMlp = nn::models::Mlp (eval).
// Any number of threads may call forward at once (the server's workers do).
#pragma once

#include <cstdint>
#include <vector>

#include "core/sparse_weight_store.hpp"
#include "energy/energy_model.hpp"
#include "tensor/conv.hpp"
#include "tensor/tensor.hpp"

namespace dropback::inference {

/// A fully-connected layer evaluated directly from a SparseParamRecord pair
/// (weight [out, in], bias [out]) without materializing the weight matrix.
class RegenLinear {
 public:
  /// `weight` must have shape [out, in]; `bias` (shape [out]) may be null.
  RegenLinear(const core::SparseParamRecord* weight,
              const core::SparseParamRecord* bias);

  /// y[m, out] = x[m, in] · Wᵀ + b, with W values produced on the fly.
  /// Counts one regen per untracked weight use and one DRAM read per
  /// tracked weight use into `traffic` if given.
  tensor::Tensor forward(const tensor::Tensor& x,
                         energy::TrafficCounter* traffic = nullptr) const;

  std::int64_t in_features() const { return in_; }
  std::int64_t out_features() const { return out_; }
  /// Floats of real storage this layer needs (tracked entries + bias).
  std::int64_t live_floats() const;

 private:
  const core::SparseParamRecord* weight_;
  const core::SparseParamRecord* bias_;
  std::int64_t out_;
  std::int64_t in_;
};

/// A 2-D convolution evaluated from a SparseParamRecord without a dense
/// kernel tensor: one panel of output channels' filters is live at a time.
/// Each panel is one tensor::conv2d call, which gathers the input again.
class RegenConv2d {
 public:
  RegenConv2d(const core::SparseParamRecord* weight,
              const core::SparseParamRecord* bias, tensor::Conv2dSpec spec);

  tensor::Tensor forward(const tensor::Tensor& x,
                         energy::TrafficCounter* traffic = nullptr) const;

  std::int64_t live_floats() const;
  const tensor::Conv2dSpec& spec() const { return spec_; }

 private:
  const core::SparseParamRecord* weight_;
  const core::SparseParamRecord* bias_;
  tensor::Conv2dSpec spec_;
};

/// Inference engine for MLP-layout stores: records must be (weight, bias)
/// pairs, applied as Linear -> ReLU -> ... -> Linear (no ReLU after last).
/// This matches nn::models::Mlp (LeNet-300-100, MNIST-100-100).
class RegenMlp {
 public:
  /// Keeps a reference to `store`; it must outlive the engine.
  explicit RegenMlp(const core::SparseWeightStore& store);

  /// logits [m, classes] from images [m, ...] (flattened internally).
  tensor::Tensor forward(const tensor::Tensor& x,
                         energy::TrafficCounter* traffic = nullptr) const;

  std::size_t num_layers() const { return layers_.size(); }

  /// Total floats of weight storage the engine actually holds — the k
  /// tracked entries (+ biases), never the dense parameter count.
  std::int64_t live_floats() const;
  /// Dense float count of the represented model, for comparison.
  std::int64_t dense_floats() const;

 private:
  std::vector<RegenLinear> layers_;
};

}  // namespace dropback::inference
