#include "optim/momentum.hpp"

#include <cmath>

#include "util/bytes.hpp"
#include "util/check.hpp"

namespace dropback::optim {

namespace {

void write_float_banks(util::ByteWriter& w,
                       const std::vector<std::vector<float>>& banks) {
  w.pod(static_cast<std::uint32_t>(banks.size()));
  for (const auto& bank : banks) {
    w.pod<std::uint64_t>(bank.size());
    w.raw(bank.data(), bank.size() * sizeof(float));
  }
}

/// Banks are sized by the optimizer's parameters, never by the input.
void read_float_banks(util::ByteReader& r,
                      std::vector<std::vector<float>>& banks) {
  const auto count = r.pod<std::uint32_t>();
  if (count != banks.size()) {
    r.fail(std::to_string(count) + " parameter banks, optimizer has " +
           std::to_string(banks.size()));
  }
  for (auto& bank : banks) {
    const auto n = r.pod<std::uint64_t>();
    if (n != bank.size()) {
      r.fail("bank of " + std::to_string(n) + " floats, optimizer expects " +
             std::to_string(bank.size()));
    }
    r.raw(bank.data(), bank.size() * sizeof(float));
  }
}

}  // namespace

MomentumSGD::MomentumSGD(std::vector<nn::Parameter*> params, float lr,
                         float momentum)
    : Optimizer(std::move(params), lr), momentum_(momentum) {
  DROPBACK_CHECK(momentum >= 0.0F && momentum < 1.0F,
                 << "MomentumSGD: momentum " << momentum);
  velocity_.reserve(params_.size());
  for (nn::Parameter* p : params_) {
    velocity_.emplace_back(static_cast<std::size_t>(p->numel()), 0.0F);
  }
}

void MomentumSGD::step() {
  for (std::size_t pi = 0; pi < params_.size(); ++pi) {
    nn::Parameter* p = params_[pi];
    if (!p->var.has_grad()) continue;
    float* w = p->var.value().data();
    const float* g = p->var.grad().data();
    float* v = velocity_[pi].data();
    const std::int64_t n = p->numel();
    for (std::int64_t i = 0; i < n; ++i) {
      v[i] = momentum_ * v[i] + g[i];
      w[i] -= lr_ * v[i];
    }
  }
}

std::int64_t MomentumSGD::state_floats() const {
  std::int64_t n = 0;
  for (const auto& v : velocity_) n += static_cast<std::int64_t>(v.size());
  return n;
}

void MomentumSGD::save_state(std::ostream& out) const {
  util::ByteWriter w(out, "MomentumSGD state");
  w.raw("MSGD");
  write_float_banks(w, velocity_);
  w.finish();
}

void MomentumSGD::load_state(std::istream& in) {
  util::ByteReader r(in, "MomentumSGD state");
  r.expect_magic("MSGD");
  read_float_banks(r, velocity_);
  r.expect_end();
}

Adam::Adam(std::vector<nn::Parameter*> params, float lr, float beta1,
           float beta2, float eps)
    : Optimizer(std::move(params), lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  DROPBACK_CHECK(beta1 >= 0.0F && beta1 < 1.0F && beta2 >= 0.0F &&
                     beta2 < 1.0F,
                 << "Adam: betas");
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (nn::Parameter* p : params_) {
    m_.emplace_back(static_cast<std::size_t>(p->numel()), 0.0F);
    v_.emplace_back(static_cast<std::size_t>(p->numel()), 0.0F);
  }
}

void Adam::step() {
  ++t_;
  const float bc1 = 1.0F - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0F - std::pow(beta2_, static_cast<float>(t_));
  for (std::size_t pi = 0; pi < params_.size(); ++pi) {
    nn::Parameter* p = params_[pi];
    if (!p->var.has_grad()) continue;
    float* w = p->var.value().data();
    const float* g = p->var.grad().data();
    float* m = m_[pi].data();
    float* v = v_[pi].data();
    const std::int64_t n = p->numel();
    for (std::int64_t i = 0; i < n; ++i) {
      m[i] = beta1_ * m[i] + (1.0F - beta1_) * g[i];
      v[i] = beta2_ * v[i] + (1.0F - beta2_) * g[i] * g[i];
      const float m_hat = m[i] / bc1;
      const float v_hat = v[i] / bc2;
      w[i] -= lr_ * m_hat / (std::sqrt(v_hat) + eps_);
    }
  }
}

std::int64_t Adam::state_floats() const {
  std::int64_t n = 0;
  for (const auto& m : m_) n += static_cast<std::int64_t>(m.size());
  for (const auto& v : v_) n += static_cast<std::int64_t>(v.size());
  return n;
}

void Adam::save_state(std::ostream& out) const {
  util::ByteWriter w(out, "Adam state");
  w.raw("ADAM");
  w.pod<std::int64_t>(t_);
  write_float_banks(w, m_);
  write_float_banks(w, v_);
  w.finish();
}

void Adam::load_state(std::istream& in) {
  util::ByteReader r(in, "Adam state");
  r.expect_magic("ADAM");
  t_ = r.pod<std::int64_t>();
  if (t_ < 0) r.fail("negative step count " + std::to_string(t_));
  read_float_banks(r, m_);
  read_float_banks(r, v_);
  r.expect_end();
}

}  // namespace dropback::optim
