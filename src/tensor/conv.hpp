// Spatial kernels: im2col-based 2-D convolution and pooling, with backward
// counterparts. All tensors are NCHW float32.
//
// conv2d lowers each input window to a column and multiplies by the weight
// matrix [C_out, C_in*KH*KW]; backward scatters column gradients back
// (col2im). Neither builds the full [N*OH*OW, patch] columns: each image
// runs in cache-sized row panels that are gathered (or scattered back)
// right where they are used.
// Pooling records argmax indices in forward so backward can scatter
// gradients exactly.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace dropback::tensor {

struct Conv2dSpec {
  std::int64_t kernel_h = 3;
  std::int64_t kernel_w = 3;
  std::int64_t stride = 1;
  std::int64_t padding = 1;

  std::int64_t out_h(std::int64_t in_h) const {
    return (in_h + 2 * padding - kernel_h) / stride + 1;
  }
  std::int64_t out_w(std::int64_t in_w) const {
    return (in_w + 2 * padding - kernel_w) / stride + 1;
  }
};

/// Lowers x[N,C,H,W] to columns [N*OH*OW, C*KH*KW].
Tensor im2col(const Tensor& x, const Conv2dSpec& spec);

/// y[N,C_out,OH,OW] = conv(x[N,C_in,H,W], w[C_out,C_in,KH,KW]) + b[C_out]
/// Pass an undefined bias Tensor to skip the bias add.
Tensor conv2d(const Tensor& x, const Tensor& w, const Tensor& b,
              const Conv2dSpec& spec);

struct Conv2dGrads {
  Tensor grad_input;   ///< [N,C_in,H,W] (undefined without with_input)
  Tensor grad_weight;  ///< [C_out,C_in,KH,KW]
  Tensor grad_bias;    ///< [C_out] (undefined if no bias was used)
};

/// Backward pass of conv2d given upstream gradient gy[N,C_out,OH,OW].
/// grad_bias is computed only with_bias and grad_input only with_input
/// (a first layer's input needs none); the others stay undefined.
Conv2dGrads conv2d_backward(const Tensor& x, const Tensor& w, const Tensor& gy,
                            const Conv2dSpec& spec, bool with_bias,
                            bool with_input = true);

/// 2x2-style max pooling. Returns output and fills `argmax` with the flat
/// input index chosen for each output element (for exact backward).
Tensor maxpool2d(const Tensor& x, std::int64_t kernel, std::int64_t stride,
                 std::vector<std::int64_t>* argmax);

/// Scatter gy back through the recorded argmax indices.
Tensor maxpool2d_backward(const Tensor& gy, const Shape& x_shape,
                          const std::vector<std::int64_t>& argmax);

/// Global average pooling: x[N,C,H,W] -> [N,C].
Tensor global_avgpool(const Tensor& x);

/// Backward of global average pooling.
Tensor global_avgpool_backward(const Tensor& gy, const Shape& x_shape);

/// Average pooling with square kernel/stride. x[N,C,H,W] -> [N,C,OH,OW].
Tensor avgpool2d(const Tensor& x, std::int64_t kernel, std::int64_t stride);

/// Backward of avgpool2d.
Tensor avgpool2d_backward(const Tensor& gy, const Shape& x_shape,
                          std::int64_t kernel, std::int64_t stride);

}  // namespace dropback::tensor
