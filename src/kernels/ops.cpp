#include "kernels/ops.h"

#include <cmath>
#include <vector>

#include "common/half.h"
#include "common/math_util.h"
#include "common/parallel.h"
#include "quant/quantize.h"

namespace qserve {

Tensor rms_norm(const Tensor& x, const Tensor& gamma, float eps) {
  QS_CHECK_EQ(x.ndim(), 2);
  QS_CHECK_EQ(x.cols(), gamma.numel());
  const int64_t m = x.rows(), d = x.cols();
  Tensor y({m, d});
  // Row-independent, so the batched executor's stacked rows parallelize
  // bitwise-identically; a decode-sized m stays inline via the grain.
  parallel_for(0, m, 4, [&](int64_t lo, int64_t hi) {
    for (int64_t t = lo; t < hi; ++t) {
      const float* xr = x.row(t);
      double ss = 0.0;
      for (int64_t c = 0; c < d; ++c) ss += double(xr[c]) * double(xr[c]);
      const float inv = 1.0f / std::sqrt(float(ss / double(d)) + eps);
      float* yr = y.row(t);
      for (int64_t c = 0; c < d; ++c) yr[c] = xr[c] * inv * gamma[c];
    }
  });
  return y;
}

QuantizedActs rms_norm_quant(const Tensor& x, const Tensor& gamma, float eps) {
  return quantize_acts_per_token(rms_norm(x, gamma, eps));
}

Tensor swiglu(const Tensor& gate, const Tensor& up) {
  QS_CHECK_EQ(gate.ndim(), 2);
  QS_CHECK(gate.same_shape(up));
  Tensor act({gate.rows(), gate.cols()});
  parallel_for(0, gate.rows(), 4, [&](int64_t lo, int64_t hi) {
    for (int64_t t = lo; t < hi; ++t)
      for (int64_t c = 0; c < gate.cols(); ++c) {
        const float g = gate.at2(t, c);
        act.at2(t, c) = (g / (1.0f + std::exp(-g))) * up.at2(t, c);
      }
  });
  return act;
}

void rope_inplace(Tensor& x, const std::vector<int>& positions, int head_dim,
                  float theta) {
  QS_CHECK_EQ(x.ndim(), 2);
  QS_CHECK_EQ(x.cols() % head_dim, 0);
  QS_CHECK_EQ(x.rows(), static_cast<int64_t>(positions.size()));
  QS_CHECK_EQ(head_dim % 2, 0);
  const int64_t m = x.rows();
  const int64_t heads = x.cols() / head_dim;
  const int half = head_dim / 2;
  // Every head of a token turns by the same angles: the frequencies once per
  // call, cos/sin once per (token, pair) — the same libm calls on the same
  // arguments as evaluating them per head.
  std::vector<float> freq(static_cast<size_t>(half));
  std::vector<float> cos_t(freq.size()), sin_t(freq.size());
  for (int i = 0; i < half; ++i)
    freq[static_cast<size_t>(i)] =
        std::pow(theta, -2.0f * float(i) / float(head_dim));
  for (int64_t t = 0; t < m; ++t) {
    const float pos = static_cast<float>(positions[static_cast<size_t>(t)]);
    for (size_t i = 0; i < freq.size(); ++i) {
      const float c = std::cos(pos * freq[i]), s = std::sin(pos * freq[i]);
      cos_t[i] = c;
      sin_t[i] = s;
    }
    float* xr = x.row(t);
    for (int64_t h = 0; h < heads; ++h) {
      float* hp = xr + h * head_dim;
      for (int i = 0; i < half; ++i) {
        const float c = cos_t[static_cast<size_t>(i)];
        const float s = sin_t[static_cast<size_t>(i)];
        const float a = hp[i], b = hp[i + half];
        hp[i] = a * c - b * s;
        hp[i + half] = a * s + b * c;
      }
    }
  }
}

void add_inplace(Tensor& y, const Tensor& x) {
  QS_CHECK(y.same_shape(x));
  for (int64_t i = 0; i < y.numel(); ++i) y[i] += x[i];
}

}  // namespace qserve
