#include "autograd/conv_ops.hpp"

#include "util/check.hpp"

namespace dropback::autograd {

namespace T = dropback::tensor;

Variable conv2d(const Variable& x, const Variable& w, const Variable& b,
                const tensor::Conv2dSpec& spec) {
  T::Tensor out = T::conv2d(x.value(), w.value(),
                            b.defined() ? b.value() : T::Tensor(), spec);
  const bool tape =
      grad_enabled() && (x.requires_grad() || w.requires_grad() ||
                         (b.defined() && b.requires_grad()));
  if (!tape) return Variable(std::move(out));
  Variable xv = x, wv = w, bv = b;
  const T::Tensor xval = x.value();
  const T::Tensor wval = w.value();
  const bool with_bias = b.defined();
  std::vector<Variable> inputs =
      with_bias ? std::vector<Variable>{x, w, b} : std::vector<Variable>{x, w};
  auto node = std::make_shared<Node>(
      "conv2d", std::move(inputs),
      [xv, wv, bv, xval, wval, spec, with_bias](const T::Tensor& gy) {
        Variable xm = xv, wm = wv, bm = bv;
        // A first layer's input (the batch) takes no gradient: skip its dX.
        const bool with_input = xm.requires_grad() || xm.grad_fn();
        const auto grads =
            T::conv2d_backward(xval, wval, gy, spec, with_bias, with_input);
        if (with_input) xm.accumulate_grad(grads.grad_input);
        if (wm.requires_grad() || wm.grad_fn()) {
          wm.accumulate_grad(grads.grad_weight);
        }
        if (with_bias && (bm.requires_grad() || bm.grad_fn())) {
          bm.accumulate_grad(grads.grad_bias);
        }
      });
  return make_result(std::move(out), std::move(node));
}

Variable maxpool2d(const Variable& x, std::int64_t kernel,
                   std::int64_t stride) {
  std::vector<std::int64_t> argmax;
  T::Tensor out = T::maxpool2d(x.value(), kernel, stride,
                               grad_enabled() ? &argmax : nullptr);
  if (!grad_enabled() || !x.requires_grad()) return Variable(std::move(out));
  Variable xv = x;
  const tensor::Shape x_shape = x.value().shape();
  auto node = std::make_shared<Node>(
      "maxpool2d", std::vector<Variable>{x},
      [xv, x_shape, argmax](const T::Tensor& gy) {
        Variable xm = xv;
        xm.accumulate_grad(T::maxpool2d_backward(gy, x_shape, argmax));
      });
  return make_result(std::move(out), std::move(node));
}

Variable avgpool2d(const Variable& x, std::int64_t kernel,
                   std::int64_t stride) {
  T::Tensor out = T::avgpool2d(x.value(), kernel, stride);
  if (!grad_enabled() || !x.requires_grad()) return Variable(std::move(out));
  Variable xv = x;
  const tensor::Shape x_shape = x.value().shape();
  auto node = std::make_shared<Node>(
      "avgpool2d", std::vector<Variable>{x},
      [xv, x_shape, kernel, stride](const T::Tensor& gy) {
        Variable xm = xv;
        xm.accumulate_grad(
            T::avgpool2d_backward(gy, x_shape, kernel, stride));
      });
  return make_result(std::move(out), std::move(node));
}

Variable global_avgpool(const Variable& x) {
  T::Tensor out = T::global_avgpool(x.value());
  if (!grad_enabled() || !x.requires_grad()) return Variable(std::move(out));
  Variable xv = x;
  const tensor::Shape x_shape = x.value().shape();
  auto node = std::make_shared<Node>(
      "global_avgpool", std::vector<Variable>{x},
      [xv, x_shape](const T::Tensor& gy) {
        Variable xm = xv;
        xm.accumulate_grad(T::global_avgpool_backward(gy, x_shape));
      });
  return make_result(std::move(out), std::move(node));
}

}  // namespace dropback::autograd
