#include "tensor/conv.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "obs/trace.hpp"
#include "simd/dispatch.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace dropback::tensor {

namespace {
/// Minimum per-shard scalar work before the conv loops fan out; below this
/// the dispatch overhead dominates. Mirrors matmul's threshold.
constexpr std::int64_t kConvGrainFlops = 1 << 16;

std::int64_t conv_grain(std::int64_t flops_per_item) {
  return std::max<std::int64_t>(
      1, kConvGrainFlops / std::max<std::int64_t>(1, flops_per_item));
}

/// Size of one column panel. A panel of output rows is gathered (or its
/// gradient produced), used and dropped while it is still in cache, so no
/// pass ever materializes the [N·OH·OW, patch] columns.
constexpr std::int64_t kPanelBytes = 64 * 1024;

/// Rows of a panel `width` floats wide (at least one).
std::int64_t panel_rows(std::int64_t width) {
  const std::int64_t row_bytes = std::max<std::int64_t>(1, width) *
                                 static_cast<std::int64_t>(sizeof(float));
  return std::max<std::int64_t>(1, kPanelBytes / row_bytes);
}

/// Taps from which the forward gather copies a stride-1 run with
/// std::copy; shorter runs (small images) are cheaper as a plain loop.
constexpr std::int64_t kLongRun = 16;

/// Fewest output positions in a forward panel: one full gemm_acc tile row
/// on AVX-512 (4 vectors of 16). Images smaller than this share a panel.
constexpr std::int64_t kMinPanelPositions = 64;

/// The patch geometry of one image restricted to input channels [c0, c1):
/// output row r = oy·OW + ox, patch column l = ((ch - c0)·KH + ky)·KW + kx.
/// A row is (c1 - c0)·KH runs of KW taps, each contiguous in the image.
/// Interior rows — every tap inside the image — take each run at a
/// precomputed offset; only border rows clip runs against the image.
class Patches {
 public:
  Patches(const Shape& x_shape, const Conv2dSpec& spec, std::int64_t c0,
          std::int64_t c1)
      : c0_(c0), h_(x_shape[2]), w_(x_shape[3]),
        image_(x_shape[1] * h_ * w_), spec_(spec),
        oh_(spec.out_h(h_)), ow_(spec.out_w(w_)) {
    runs_.reserve(static_cast<std::size_t>((c1 - c0) * spec.kernel_h));
    for (std::int64_t ch = 0; ch < c1 - c0; ++ch) {
      for (std::int64_t ky = 0; ky < spec.kernel_h; ++ky) {
        runs_.push_back((ch * h_ + ky) * w_);
      }
    }
  }

  std::int64_t rows() const { return oh_ * ow_; }
  std::int64_t width() const {
    return static_cast<std::int64_t>(runs_.size()) * spec_.kernel_w;
  }

  /// dst[(r - r0)·width + l] = tap (r, l) of `image` (the whole NCHW image,
  /// all channels), 0 where the tap lies in the padding.
  void gather(const float* image, std::int64_t r0, std::int64_t r1,
              float* dst) const {
    const float* src = image + c0_ * h_ * w_;
    visit(
        r0, r1,
        [=](std::int64_t i, std::int64_t px, std::int64_t len) {
#pragma GCC unroll 4
          for (std::int64_t k = 0; k < len; ++k) dst[i + k] = src[px + k];
        },
        [=](std::int64_t i, std::int64_t len) {
          for (std::int64_t k = 0; k < len; ++k) dst[i + k] = 0.0F;
        });
  }

  /// The transposed gather of rows [r0, r1) of `count` consecutive
  /// images starting at `x`, im2col's classic layout: dst[l·ld + j·(r1 -
  /// r0) + r - r0] = tap (r, l) of image j, 0 where the tap lies in the
  /// padding. Each patch column l = (ch, ky, kx) is a run over output
  /// positions; within one output row its taps are pixels `stride` apart.
  void gather_t(const float* x, std::int64_t count, std::int64_t r0,
                std::int64_t r1, float* dst, std::int64_t ld) const {
    const std::int64_t kh = spec_.kernel_h, kw = spec_.kernel_w;
    const std::int64_t stride = spec_.stride, pad = spec_.padding;
    for (std::int64_t q = 0; q < static_cast<std::int64_t>(runs_.size());
         ++q) {
      const std::int64_t ky = q % kh;
      // Pixel (iy, ix) of this run's channel is at plane + iy·w + ix.
      const std::int64_t plane = c0_ * h_ * w_ + runs_[q] - ky * w_;
      for (std::int64_t kx = 0; kx < kw; ++kx) {
        // Output columns [ox_lo, ox_hi) read inside the image.
        const std::int64_t ox_lo = std::min(
            ow_, kx >= pad ? 0 : (pad - kx + stride - 1) / stride);
        const std::int64_t ox_hi = std::clamp(
            w_ - 1 + pad - kx < 0 ? 0 : (w_ - 1 + pad - kx) / stride + 1,
            ox_lo, ow_);
        float* out = dst + (q * kw + kx) * ld;
        for (std::int64_t j = 0; j < count; ++j) {
          const float* img = x + j * image_;
          std::int64_t oy = r0 / ow_, ox = r0 % ow_;
          for (std::int64_t r = r0; r < r1; ox = 0, ++oy) {
            const std::int64_t end = std::min(ow_, ox + r1 - r);
            const std::int64_t iy = oy * stride - pad + ky;
            std::int64_t t = ox;
            if (iy >= 0 && iy < h_) {
              // Output column t reads column t·stride - pad + kx.
              const std::int64_t at = plane + iy * w_ - pad + kx;
              for (; t < std::min(ox_lo, end); ++t) *out++ = 0.0F;
              const std::int64_t hi = std::min(ox_hi, end);
              if (stride == 1 && hi - t >= kLongRun) {
                out = std::copy(img + at + t, img + at + hi, out);
                t = hi;
              }
              for (; t < hi; ++t) *out++ = img[at + t * stride];
            }
            for (; t < end; ++t) *out++ = 0.0F;
            r += end - ox;
          }
        }
      }
    }
  }

  /// The adjoint of gather: adds src[(r - r0)·width + l] into its pixel of
  /// `image`, rows ascending — so each pixel sums its taps in (oy, ox)
  /// order, panel after panel.
  void scatter(const float* src, std::int64_t r0, std::int64_t r1,
               float* image) const {
    float* dst = image + c0_ * h_ * w_;
    visit(
        r0, r1,
        [=](std::int64_t i, std::int64_t px, std::int64_t len) {
#pragma GCC unroll 4
          for (std::int64_t k = 0; k < len; ++k) dst[px + k] += src[i + k];
        },
        [](std::int64_t, std::int64_t) {});
  }

 private:
  /// Calls run(i, pixel, len) for every in-image run of taps of rows
  /// [r0, r1) and pad(i, len) for every run in the padding, i = (r - r0)·
  /// width + l, rows ascending. The pixel offset is relative to channel
  /// c0's plane. 3-wide kernels get their run length at compile time.
  template <class Run, class Pad>
  void visit(std::int64_t r0, std::int64_t r1, Run run, Pad pad) const {
    if (spec_.kernel_w == 3) {
      visit_rows<3>(r0, r1, run, pad);
    } else {
      visit_rows<0>(r0, r1, run, pad);
    }
  }

  template <std::int64_t KW, class Run, class Pad>
  void visit_rows(std::int64_t r0, std::int64_t r1, Run run, Pad pad) const {
    const std::int64_t kh = spec_.kernel_h;
    const std::int64_t kw = KW > 0 ? KW : spec_.kernel_w;
    const std::int64_t width = this->width();
    const std::int64_t runs = static_cast<std::int64_t>(runs_.size());
    const std::int64_t* run_at = runs_.data();
    std::int64_t oy = r0 / ow_, ox = r0 % ow_;
    for (std::int64_t r = r0; r < r1; ++r) {
      const std::int64_t i0 = (r - r0) * width;
      const std::int64_t iy0 = oy * spec_.stride - spec_.padding;
      const std::int64_t ix0 = ox * spec_.stride - spec_.padding;
      const std::int64_t ky_lo = std::max<std::int64_t>(0, -iy0);
      const std::int64_t ky_hi = std::min(kh, h_ - iy0);
      const std::int64_t kx_lo = std::max<std::int64_t>(0, -ix0);
      const std::int64_t kx_hi = std::min(kw, w_ - ix0);
      const std::int64_t base = iy0 * w_ + ix0;
      if (ky_lo == 0 && ky_hi == kh && kx_lo == 0 && kx_hi == kw) {
        for (std::int64_t q = 0; q < runs; ++q) {
          run(i0 + q * kw, base + run_at[q], kw);
        }
      } else {
        for (std::int64_t q0 = 0; q0 < runs; q0 += kh) {
          for (std::int64_t ky = 0; ky < kh; ++ky) {
            const std::int64_t i = i0 + (q0 + ky) * kw;
            if (ky < ky_lo || ky >= ky_hi || kx_lo >= kx_hi) {
              pad(i, kw);
              continue;
            }
            pad(i, kx_lo);
            run(i + kx_lo, base + run_at[q0 + ky] + kx_lo, kx_hi - kx_lo);
            pad(i + kx_hi, kw - kx_hi);
          }
        }
      }
      if (++ox == ow_) {
        ox = 0;
        ++oy;
      }
    }
  }

  std::int64_t c0_, h_, w_;
  std::int64_t image_;  ///< floats per NCHW image, all channels
  Conv2dSpec spec_;
  std::int64_t oh_, ow_;
  std::vector<std::int64_t> runs_;  ///< image offset of each (ch, ky) run
};

void check_conv_input(const Tensor& x, const Conv2dSpec& spec,
                      const char* what) {
  DROPBACK_CHECK(x.ndim() == 4, << what << " needs NCHW, got "
                                << shape_str(x.shape()));
  DROPBACK_CHECK(spec.out_h(x.size(2)) > 0 && spec.out_w(x.size(3)) > 0,
                 << what << ": empty output for input "
                 << shape_str(x.shape()));
}

void check_conv_weight(const Tensor& x, const Tensor& w,
                       const Conv2dSpec& spec, const char* what) {
  DROPBACK_CHECK(w.ndim() == 4, << what << ": x " << shape_str(x.shape())
                                << ", w " << shape_str(w.shape()));
  DROPBACK_CHECK(w.size(1) == x.size(1) && w.size(2) == spec.kernel_h &&
                     w.size(3) == spec.kernel_w,
                 << what << ": weight " << shape_str(w.shape())
                 << " inconsistent with input channels " << x.size(1)
                 << " and kernel " << spec.kernel_h << "x" << spec.kernel_w);
}
}  // namespace

Tensor im2col(const Tensor& x, const Conv2dSpec& spec) {
  DROPBACK_TRACE_SPAN("im2col");
  check_conv_input(x, spec, "im2col");
  const Patches patches(x.shape(), spec, 0, x.size(1));
  const std::int64_t rows = patches.rows(), width = patches.width();
  const std::int64_t image = x.size(1) * x.size(2) * x.size(3);
  Tensor cols({x.size(0) * rows, width});
  const float* px = x.data();
  float* pc = cols.data();
  util::parallel_for(conv_grain(rows * width), x.size(0),
                     [&](std::int64_t b0, std::int64_t b1) {
                       for (std::int64_t b = b0; b < b1; ++b) {
                         patches.gather(px + b * image, 0, rows,
                                        pc + b * rows * width);
                       }
                     });
  return cols;
}

Tensor conv2d(const Tensor& x, const Tensor& w, const Tensor& b,
              const Conv2dSpec& spec) {
  DROPBACK_TRACE_SPAN("conv2d");
  check_conv_input(x, spec, "conv2d");
  check_conv_weight(x, w, spec, "conv2d");
  const std::int64_t n = x.size(0), cin = x.size(1);
  const std::int64_t cout = w.size(0);
  DROPBACK_CHECK(!b.defined() || b.numel() == cout,
                 << "conv2d: bias size " << b.numel());
  const Patches patches(x.shape(), spec, 0, cin);
  const std::int64_t rows = patches.rows(), width = patches.width();
  const std::int64_t image = cin * x.size(2) * x.size(3);
  // A panel holds `span` output positions of one image, or `per_panel`
  // whole images when an image has fewer positions than a panel.
  const std::int64_t cap = std::max(kMinPanelPositions, panel_rows(width));
  const std::int64_t per_panel = std::max<std::int64_t>(1, cap / rows);
  const std::int64_t span = per_panel > 1 ? rows : cap;
  Tensor y({n, cout, spec.out_h(x.size(2)), spec.out_w(x.size(3))});
  const float* px = x.data();
  const float* pw = w.data();
  const float* pb = b.defined() ? b.data() : nullptr;
  float* py = y.data();
  const simd::Kernels& kernels = simd::kernels();
  // Per panel: Y[cout, P] = W[cout, patch] · panel[patch, P] on gemm_acc,
  // W as A — each output a float chain from +0 over l ascending that skips
  // zero weights — then one float bias add. A one-image panel accumulates
  // straight into NCHW; a panel of several images into a [cout, P] block
  // that the bias pass copies out. Shards own whole images, and no chain
  // depends on how panels are composed.
  util::parallel_for(
      conv_grain(rows * width * cout), n,
      [&](std::int64_t b0, std::int64_t b1) {
        std::vector<float> panel(
            static_cast<std::size_t>(per_panel * span * width));
        std::vector<float> block(
            per_panel > 1 ? static_cast<std::size_t>(cout * per_panel * span)
                          : 0);
        for (std::int64_t bn = b0; bn < b1; bn += per_panel) {
          const std::int64_t images = std::min(per_panel, b1 - bn);
          for (std::int64_t r0 = 0; r0 < rows; r0 += span) {
            const std::int64_t len = std::min(rows, r0 + span) - r0;
            const std::int64_t cols = images * len;
            {
              DROPBACK_TRACE_SPAN("im2col");
              patches.gather_t(px + bn * image, images, r0, r0 + len,
                               panel.data(), cols);
            }
            float* c = py + bn * cout * rows + r0;
            std::int64_t ldc = rows;
            if (images > 1) {
              c = block.data();
              ldc = cols;
              std::fill_n(c, cout * cols, 0.0F);
            }
            kernels.gemm_acc(cout, cols, width, pw, width, 1, panel.data(),
                             cols, c, ldc);
            for (std::int64_t q = 0; q < images; ++q) {
              for (std::int64_t o = 0; o < cout; ++o) {
                const float* src = c + o * ldc + q * len;
                float* dst = py + ((bn + q) * cout + o) * rows + r0;
                if (pb != nullptr) {
                  for (std::int64_t p = 0; p < len; ++p) {
                    dst[p] = src[p] + pb[o];
                  }
                } else if (src != dst) {
                  std::copy_n(src, len, dst);
                }
              }
            }
          }
        }
      });
  return y;
}

Conv2dGrads conv2d_backward(const Tensor& x, const Tensor& w, const Tensor& gy,
                            const Conv2dSpec& spec, bool with_bias,
                            bool with_input) {
  DROPBACK_TRACE_SPAN("conv2d_backward");
  check_conv_input(x, spec, "conv2d_backward");
  check_conv_weight(x, w, spec, "conv2d_backward");
  const std::int64_t n = x.size(0), cin = x.size(1);
  const std::int64_t cout = w.size(0);
  const std::int64_t oh = spec.out_h(x.size(2)), ow = spec.out_w(x.size(3));
  DROPBACK_CHECK(gy.ndim() == 4 && gy.size(0) == n && gy.size(1) == cout &&
                     gy.size(2) == oh && gy.size(3) == ow,
                 << "conv2d_backward: gy " << shape_str(gy.shape()));
  const std::int64_t rows = oh * ow;
  const std::int64_t taps = spec.kernel_h * spec.kernel_w;
  const std::int64_t patch = cin * taps;
  const std::int64_t image = cin * x.size(2) * x.size(3);
  const float* px = x.data();
  const float* pgy = gy.data();
  const simd::Kernels& kernels = simd::kernels();

  Conv2dGrads grads;
  // dW[o, l] += Σ_r gy[o, r] · cols[r, l], a float chain over (image, r)
  // ascending. gy's NCHW image is already the [C_out, rows] left operand.
  // Shards own input-channel groups, i.e. disjoint dW column blocks, and
  // gather only their own patch columns.
  grads.grad_weight = Tensor(w.shape());
  float* pdw = grads.grad_weight.data();
  util::parallel_for(
      conv_grain(n * rows * taps * cout), cin,
      [&](std::int64_t c0, std::int64_t c1) {
        const Patches patches(x.shape(), spec, c0, c1);
        const std::int64_t width = patches.width();
        const std::int64_t panel = panel_rows(width);
        std::vector<float> cols(static_cast<std::size_t>(panel * width));
        for (std::int64_t bn = 0; bn < n; ++bn) {
          for (std::int64_t r0 = 0; r0 < rows; r0 += panel) {
            const std::int64_t r1 = std::min(rows, r0 + panel);
            {
              DROPBACK_TRACE_SPAN("im2col");
              patches.gather(px + bn * image, r0, r1, cols.data());
            }
            kernels.gemm_acc(cout, width, r1 - r0,
                             pgy + bn * cout * rows + r0, rows, 1,
                             cols.data(), width, pdw + c0 * taps, patch);
          }
        }
      });

  // dX needs no columns: each dcols panel [rows, patch] = gyᵀ · W (a float
  // chain over o ascending) is scattered back at once. Shards own images.
  if (with_input) {
    grads.grad_input = Tensor(x.shape());
    float* pgx = grads.grad_input.data();
    const float* pw = w.data();
    const Patches patches(x.shape(), spec, 0, cin);
    const std::int64_t panel = panel_rows(patch);
    util::parallel_for(
        conv_grain(rows * patch * cout), n,
        [&](std::int64_t b0, std::int64_t b1) {
          std::vector<float> dcols(static_cast<std::size_t>(panel * patch));
          for (std::int64_t bn = b0; bn < b1; ++bn) {
            for (std::int64_t r0 = 0; r0 < rows; r0 += panel) {
              const std::int64_t r1 = std::min(rows, r0 + panel);
              std::fill_n(dcols.begin(), (r1 - r0) * patch, 0.0F);
              kernels.gemm_acc(r1 - r0, patch, cout,
                               pgy + bn * cout * rows + r0, 1, rows, pw,
                               patch, dcols.data(), patch);
              patches.scatter(dcols.data(), r0, r1, pgx + bn * image);
            }
          }
        });
  }

  // db[o] = Σ gy[·, o, ·], the float chain of sum_rows over (image, r).
  if (with_bias) {
    grads.grad_bias = Tensor({cout});
    float* pdb = grads.grad_bias.data();
    util::parallel_for(conv_grain(n * rows), cout,
                       [&](std::int64_t o0, std::int64_t o1) {
                         for (std::int64_t o = o0; o < o1; ++o) {
                           float acc = 0.0F;
                           for (std::int64_t bn = 0; bn < n; ++bn) {
                             const float* g = pgy + (bn * cout + o) * rows;
                             for (std::int64_t r = 0; r < rows; ++r) {
                               acc += g[r];
                             }
                           }
                           pdb[o] = acc;
                         }
                       });
  }
  return grads;
}

Tensor maxpool2d(const Tensor& x, std::int64_t kernel, std::int64_t stride,
                 std::vector<std::int64_t>* argmax) {
  DROPBACK_CHECK(x.ndim() == 4, << "maxpool2d needs NCHW");
  const std::int64_t n = x.size(0), c = x.size(1), h = x.size(2),
                     w = x.size(3);
  const std::int64_t oh = (h - kernel) / stride + 1;
  const std::int64_t ow = (w - kernel) / stride + 1;
  DROPBACK_CHECK(oh > 0 && ow > 0, << "maxpool2d: empty output");
  Tensor y({n, c, oh, ow});
  if (argmax) argmax->assign(static_cast<size_t>(y.numel()), -1);
  const float* px = x.data();
  float* py = y.data();
  std::int64_t out_i = 0;
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* plane = px + (b * c + ch) * h * w;
      const std::int64_t plane_base = (b * c + ch) * h * w;
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          float best = -std::numeric_limits<float>::infinity();
          std::int64_t best_idx = -1;
          for (std::int64_t ky = 0; ky < kernel; ++ky) {
            for (std::int64_t kx = 0; kx < kernel; ++kx) {
              const std::int64_t iy = oy * stride + ky;
              const std::int64_t ix = ox * stride + kx;
              const float v = plane[iy * w + ix];
              if (v > best) {
                best = v;
                best_idx = plane_base + iy * w + ix;
              }
            }
          }
          py[out_i] = best;
          if (argmax) (*argmax)[static_cast<size_t>(out_i)] = best_idx;
          ++out_i;
        }
      }
    }
  }
  return y;
}

Tensor maxpool2d_backward(const Tensor& gy, const Shape& x_shape,
                          const std::vector<std::int64_t>& argmax) {
  DROPBACK_CHECK(static_cast<std::int64_t>(argmax.size()) == gy.numel(),
                 << "maxpool2d_backward: argmax size mismatch");
  Tensor gx(x_shape);
  float* pgx = gx.data();
  const float* pgy = gy.data();
  for (std::int64_t i = 0; i < gy.numel(); ++i) {
    pgx[argmax[static_cast<size_t>(i)]] += pgy[i];
  }
  return gx;
}

Tensor global_avgpool(const Tensor& x) {
  DROPBACK_CHECK(x.ndim() == 4, << "global_avgpool needs NCHW");
  const std::int64_t n = x.size(0), c = x.size(1), hw = x.size(2) * x.size(3);
  Tensor y({n, c});
  const float* px = x.data();
  float* py = y.data();
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* p = px + (b * c + ch) * hw;
      double acc = 0.0;
      for (std::int64_t i = 0; i < hw; ++i) acc += p[i];
      py[b * c + ch] = static_cast<float>(acc / static_cast<double>(hw));
    }
  }
  return y;
}

Tensor global_avgpool_backward(const Tensor& gy, const Shape& x_shape) {
  DROPBACK_CHECK(x_shape.size() == 4, << "global_avgpool_backward shape");
  const std::int64_t n = x_shape[0], c = x_shape[1],
                     hw = x_shape[2] * x_shape[3];
  DROPBACK_CHECK(gy.numel() == n * c, << "global_avgpool_backward: gy numel");
  Tensor gx(x_shape);
  const float* pgy = gy.data();
  float* pgx = gx.data();
  const float inv = 1.0F / static_cast<float>(hw);
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float g = pgy[b * c + ch] * inv;
      float* p = pgx + (b * c + ch) * hw;
      for (std::int64_t i = 0; i < hw; ++i) p[i] = g;
    }
  }
  return gx;
}

Tensor avgpool2d(const Tensor& x, std::int64_t kernel, std::int64_t stride) {
  DROPBACK_CHECK(x.ndim() == 4, << "avgpool2d needs NCHW");
  const std::int64_t n = x.size(0), c = x.size(1), h = x.size(2),
                     w = x.size(3);
  const std::int64_t oh = (h - kernel) / stride + 1;
  const std::int64_t ow = (w - kernel) / stride + 1;
  DROPBACK_CHECK(oh > 0 && ow > 0, << "avgpool2d: empty output");
  Tensor y({n, c, oh, ow});
  const float* px = x.data();
  float* py = y.data();
  const float inv = 1.0F / static_cast<float>(kernel * kernel);
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* plane = px + (b * c + ch) * h * w;
      float* out_plane = py + (b * c + ch) * oh * ow;
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          float acc = 0.0F;
          for (std::int64_t ky = 0; ky < kernel; ++ky) {
            for (std::int64_t kx = 0; kx < kernel; ++kx) {
              acc += plane[(oy * stride + ky) * w + (ox * stride + kx)];
            }
          }
          out_plane[oy * ow + ox] = acc * inv;
        }
      }
    }
  }
  return y;
}

Tensor avgpool2d_backward(const Tensor& gy, const Shape& x_shape,
                          std::int64_t kernel, std::int64_t stride) {
  DROPBACK_CHECK(x_shape.size() == 4, << "avgpool2d_backward shape");
  const std::int64_t n = x_shape[0], c = x_shape[1], h = x_shape[2],
                     w = x_shape[3];
  const std::int64_t oh = gy.size(2), ow = gy.size(3);
  Tensor gx(x_shape);
  const float* pgy = gy.data();
  float* pgx = gx.data();
  const float inv = 1.0F / static_cast<float>(kernel * kernel);
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* gplane = pgy + (b * c + ch) * oh * ow;
      float* plane = pgx + (b * c + ch) * h * w;
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          const float g = gplane[oy * ow + ox] * inv;
          for (std::int64_t ky = 0; ky < kernel; ++ky) {
            for (std::int64_t kx = 0; kx < kernel; ++kx) {
              plane[(oy * stride + ky) * w + (ox * stride + kx)] += g;
            }
          }
        }
      }
    }
  }
  return gx;
}

}  // namespace dropback::tensor
