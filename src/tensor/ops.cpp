#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace dropback::tensor {

namespace {

/// Elementwise kernels split [0, n) into contiguous shards; every output
/// element is written by exactly one shard running the serial per-element
/// code, so results are bitwise identical for any thread count. The grain
/// keeps small tensors on the calling thread.
constexpr std::int64_t kElemGrain = 8192;

/// Row/channel kernels shard whole rows (or channels); each output row is
/// reduced in the serial order by a single shard.
std::int64_t row_grain(std::int64_t row_cost) {
  return std::max<std::int64_t>(
      1, kElemGrain / std::max<std::int64_t>(1, row_cost));
}

template <typename F>
Tensor binary(const Tensor& a, const Tensor& b, F f, const char* name) {
  DROPBACK_CHECK(same_shape(a, b), << name << ": shape mismatch "
                                   << shape_str(a.shape()) << " vs "
                                   << shape_str(b.shape()));
  Tensor out(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  const std::int64_t n = a.numel();
  util::parallel_for(kElemGrain, n, [=](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t i = b0; i < b1; ++i) po[i] = f(pa[i], pb[i]);
  });
  return out;
}

template <typename F>
Tensor unary(const Tensor& a, F f) {
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  const std::int64_t n = a.numel();
  util::parallel_for(kElemGrain, n, [=](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t i = b0; i < b1; ++i) po[i] = f(pa[i]);
  });
  return out;
}
}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return binary(a, b, [](float x, float y) { return x + y; }, "add");
}
Tensor sub(const Tensor& a, const Tensor& b) {
  return binary(a, b, [](float x, float y) { return x - y; }, "sub");
}
Tensor mul(const Tensor& a, const Tensor& b) {
  return binary(a, b, [](float x, float y) { return x * y; }, "mul");
}
Tensor div(const Tensor& a, const Tensor& b) {
  return binary(a, b, [](float x, float y) { return x / y; }, "div");
}

Tensor add_scalar(const Tensor& a, float s) {
  return unary(a, [s](float x) { return x + s; });
}
Tensor mul_scalar(const Tensor& a, float s) {
  return unary(a, [s](float x) { return x * s; });
}

Tensor exp(const Tensor& a) {
  return unary(a, [](float x) { return std::exp(x); });
}
Tensor log(const Tensor& a) {
  return unary(a, [](float x) { return std::log(x); });
}
Tensor sqrt(const Tensor& a) {
  return unary(a, [](float x) { return std::sqrt(x); });
}
Tensor abs(const Tensor& a) {
  return unary(a, [](float x) { return std::fabs(x); });
}
Tensor tanh(const Tensor& a) {
  return unary(a, [](float x) { return std::tanh(x); });
}
Tensor sigmoid(const Tensor& a) {
  return unary(a, [](float x) { return 1.0F / (1.0F + std::exp(-x)); });
}
Tensor relu(const Tensor& a) {
  return unary(a, [](float x) { return x > 0.0F ? x : 0.0F; });
}
Tensor clamp(const Tensor& a, float lo, float hi) {
  return unary(a, [lo, hi](float x) { return std::min(std::max(x, lo), hi); });
}
Tensor map(const Tensor& a, const std::function<float(float)>& f) {
  return unary(a, f);
}

Tensor transpose2d(const Tensor& a) {
  DROPBACK_CHECK(a.ndim() == 2, << "transpose2d needs 2-D, got "
                                << shape_str(a.shape()));
  const std::int64_t m = a.size(0), n = a.size(1);
  Tensor out({n, m});
  const float* pa = a.data();
  float* po = out.data();
  // 16 x 16 blocks, so the block's source and destination rows stay in
  // cache; shards own 16-row blocks of the output. A pure copy.
  constexpr std::int64_t kBlock = 16;
  util::parallel_for(
      row_grain(kBlock * m), (n + kBlock - 1) / kBlock,
      [=](std::int64_t s0, std::int64_t s1) {
        const std::int64_t j_end = std::min(n, s1 * kBlock);
        for (std::int64_t i0 = 0; i0 < m; i0 += kBlock) {
          const std::int64_t i1 = std::min(m, i0 + kBlock);
          for (std::int64_t j0 = s0 * kBlock; j0 < j_end; j0 += kBlock) {
            const std::int64_t j1 = std::min(j_end, j0 + kBlock);
            for (std::int64_t j = j0; j < j1; ++j) {
              for (std::int64_t i = i0; i < i1; ++i) {
                po[j * m + i] = pa[i * n + j];
              }
            }
          }
        }
      });
  return out;
}

Tensor add_row_vector(const Tensor& x, const Tensor& b) {
  DROPBACK_CHECK(x.ndim() == 2 && b.ndim() == 1 && b.size(0) == x.size(1),
                 << "add_row_vector: " << shape_str(x.shape()) << " + "
                 << shape_str(b.shape()));
  const std::int64_t m = x.size(0), n = x.size(1);
  Tensor out(x.shape());
  const float* px = x.data();
  const float* pb = b.data();
  float* po = out.data();
  util::parallel_for(row_grain(n), m, [=](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        po[i * n + j] = px[i * n + j] + pb[j];
      }
    }
  });
  return out;
}

Tensor mul_row_vector(const Tensor& x, const Tensor& s) {
  DROPBACK_CHECK(x.ndim() == 2 && s.ndim() == 1 && s.size(0) == x.size(1),
                 << "mul_row_vector: " << shape_str(x.shape()) << " * "
                 << shape_str(s.shape()));
  const std::int64_t m = x.size(0), n = x.size(1);
  Tensor out(x.shape());
  const float* px = x.data();
  const float* ps = s.data();
  float* po = out.data();
  util::parallel_for(row_grain(n), m, [=](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        po[i * n + j] = px[i * n + j] * ps[j];
      }
    }
  });
  return out;
}

Tensor sum_rows(const Tensor& x) {
  DROPBACK_CHECK(x.ndim() == 2, << "sum_rows needs 2-D");
  const std::int64_t m = x.size(0), n = x.size(1);
  Tensor out({n});
  const float* px = x.data();
  float* po = out.data();
  util::parallel_for(row_grain(m), n, [=](std::int64_t j0, std::int64_t j1) {
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t j = j0; j < j1; ++j) po[j] += px[i * n + j];
    }
  });
  return out;
}

Tensor sum_cols(const Tensor& x) {
  DROPBACK_CHECK(x.ndim() == 2, << "sum_cols needs 2-D");
  const std::int64_t m = x.size(0), n = x.size(1);
  Tensor out({m});
  const float* px = x.data();
  float* po = out.data();
  util::parallel_for(row_grain(n), m, [=](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      double acc = 0.0;
      for (std::int64_t j = 0; j < n; ++j) acc += px[i * n + j];
      po[i] = static_cast<float>(acc);
    }
  });
  return out;
}

Tensor row_softmax(const Tensor& x) {
  DROPBACK_CHECK(x.ndim() == 2, << "row_softmax needs 2-D");
  const std::int64_t m = x.size(0), n = x.size(1);
  Tensor out(x.shape());
  const float* px = x.data();
  float* po = out.data();
  util::parallel_for(row_grain(n), m, [=](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const float* row = px + i * n;
      float mx = row[0];
      for (std::int64_t j = 1; j < n; ++j) mx = std::max(mx, row[j]);
      double z = 0.0;
      for (std::int64_t j = 0; j < n; ++j) {
        const float e = std::exp(row[j] - mx);
        po[i * n + j] = e;
        z += e;
      }
      const float inv = static_cast<float>(1.0 / z);
      for (std::int64_t j = 0; j < n; ++j) po[i * n + j] *= inv;
    }
  });
  return out;
}

Tensor row_logsumexp(const Tensor& x) {
  DROPBACK_CHECK(x.ndim() == 2, << "row_logsumexp needs 2-D");
  const std::int64_t m = x.size(0), n = x.size(1);
  Tensor out({m});
  const float* px = x.data();
  float* po = out.data();
  util::parallel_for(row_grain(n), m, [=](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const float* row = px + i * n;
      float mx = row[0];
      for (std::int64_t j = 1; j < n; ++j) mx = std::max(mx, row[j]);
      double z = 0.0;
      for (std::int64_t j = 0; j < n; ++j) z += std::exp(row[j] - mx);
      po[i] = mx + static_cast<float>(std::log(z));
    }
  });
  return out;
}

std::vector<std::int64_t> argmax_rows(const Tensor& x) {
  DROPBACK_CHECK(x.ndim() == 2, << "argmax_rows needs 2-D");
  const std::int64_t m = x.size(0), n = x.size(1);
  std::vector<std::int64_t> out(static_cast<size_t>(m));
  const float* px = x.data();
  for (std::int64_t i = 0; i < m; ++i) {
    const float* row = px + i * n;
    out[static_cast<size_t>(i)] =
        std::distance(row, std::max_element(row, row + n));
  }
  return out;
}

namespace {
void check_nchw(const Tensor& x, const char* name) {
  DROPBACK_CHECK(x.ndim() == 4, << name << " needs NCHW, got "
                                << shape_str(x.shape()));
}
}  // namespace

Tensor channel_mean(const Tensor& x) {
  check_nchw(x, "channel_mean");
  const std::int64_t n = x.size(0), c = x.size(1), hw = x.size(2) * x.size(3);
  Tensor out({c});
  const float* px = x.data();
  float* po = out.data();
  util::parallel_for(
      row_grain(n * hw), c, [=](std::int64_t c0, std::int64_t c1) {
        for (std::int64_t ch = c0; ch < c1; ++ch) {
          double acc = 0.0;
          for (std::int64_t b = 0; b < n; ++b) {
            const float* p = px + (b * c + ch) * hw;
            for (std::int64_t i = 0; i < hw; ++i) acc += p[i];
          }
          po[ch] = static_cast<float>(acc / static_cast<double>(n * hw));
        }
      });
  return out;
}

Tensor channel_var(const Tensor& x, const Tensor& mean) {
  check_nchw(x, "channel_var");
  const std::int64_t n = x.size(0), c = x.size(1), hw = x.size(2) * x.size(3);
  DROPBACK_CHECK(mean.numel() == c, << "channel_var: mean size mismatch");
  Tensor out({c});
  const float* px = x.data();
  const float* pm = mean.data();
  float* po = out.data();
  util::parallel_for(
      row_grain(n * hw), c, [=](std::int64_t c0, std::int64_t c1) {
        for (std::int64_t ch = c0; ch < c1; ++ch) {
          double acc = 0.0;
          const double mu = pm[ch];
          for (std::int64_t b = 0; b < n; ++b) {
            const float* p = px + (b * c + ch) * hw;
            for (std::int64_t i = 0; i < hw; ++i) {
              const double d = p[i] - mu;
              acc += d * d;
            }
          }
          po[ch] = static_cast<float>(acc / static_cast<double>(n * hw));
        }
      });
  return out;
}

Tensor channel_affine(const Tensor& x, const Tensor& mean, const Tensor& scale,
                      const Tensor& shift) {
  check_nchw(x, "channel_affine");
  const std::int64_t n = x.size(0), c = x.size(1), hw = x.size(2) * x.size(3);
  DROPBACK_CHECK(mean.numel() == c && scale.numel() == c && shift.numel() == c,
                 << "channel_affine: per-channel size mismatch");
  Tensor out(x.shape());
  const float* px = x.data();
  const float* pm = mean.data();
  const float* ps = scale.data();
  const float* pb = shift.data();
  float* po = out.data();
  util::parallel_for(
      row_grain(hw), n * c, [=](std::int64_t p0, std::int64_t p1) {
        for (std::int64_t plane = p0; plane < p1; ++plane) {
          const std::int64_t ch = plane % c;
          const float* p = px + plane * hw;
          float* q = po + plane * hw;
          const float mu = pm[ch], s = ps[ch], sh = pb[ch];
          for (std::int64_t i = 0; i < hw; ++i) q[i] = (p[i] - mu) * s + sh;
        }
      });
  return out;
}

Tensor channel_sum(const Tensor& x) {
  check_nchw(x, "channel_sum");
  const std::int64_t n = x.size(0), c = x.size(1), hw = x.size(2) * x.size(3);
  Tensor out({c});
  const float* px = x.data();
  float* po = out.data();
  util::parallel_for(
      row_grain(n * hw), c, [=](std::int64_t c0, std::int64_t c1) {
        for (std::int64_t ch = c0; ch < c1; ++ch) {
          double acc = 0.0;
          for (std::int64_t b = 0; b < n; ++b) {
            const float* p = px + (b * c + ch) * hw;
            for (std::int64_t i = 0; i < hw; ++i) acc += p[i];
          }
          po[ch] = static_cast<float>(acc);
        }
      });
  return out;
}

Tensor channel_dot(const Tensor& x, const Tensor& y) {
  check_nchw(x, "channel_dot");
  DROPBACK_CHECK(same_shape(x, y), << "channel_dot: shape mismatch");
  const std::int64_t n = x.size(0), c = x.size(1), hw = x.size(2) * x.size(3);
  Tensor out({c});
  const float* px = x.data();
  const float* py = y.data();
  float* po = out.data();
  util::parallel_for(
      row_grain(n * hw), c, [=](std::int64_t c0, std::int64_t c1) {
        for (std::int64_t ch = c0; ch < c1; ++ch) {
          double acc = 0.0;
          for (std::int64_t b = 0; b < n; ++b) {
            const float* p = px + (b * c + ch) * hw;
            const float* q = py + (b * c + ch) * hw;
            for (std::int64_t i = 0; i < hw; ++i) acc += p[i] * q[i];
          }
          po[ch] = static_cast<float>(acc);
        }
      });
  return out;
}

Tensor mul_per_channel(const Tensor& x, const Tensor& s) {
  check_nchw(x, "mul_per_channel");
  const std::int64_t n = x.size(0), c = x.size(1), hw = x.size(2) * x.size(3);
  DROPBACK_CHECK(s.numel() == c, << "mul_per_channel: scale size mismatch");
  Tensor out(x.shape());
  const float* px = x.data();
  const float* ps = s.data();
  float* po = out.data();
  util::parallel_for(
      row_grain(hw), n * c, [=](std::int64_t p0, std::int64_t p1) {
        for (std::int64_t plane = p0; plane < p1; ++plane) {
          const float* p = px + plane * hw;
          float* q = po + plane * hw;
          const float sc = ps[plane % c];
          for (std::int64_t i = 0; i < hw; ++i) q[i] = p[i] * sc;
        }
      });
  return out;
}

}  // namespace dropback::tensor
