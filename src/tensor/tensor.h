// Minimal dense row-major tensor used throughout the reproduction.
//
// The library deliberately keeps the tensor type simple (owning, contiguous,
// row-major) — all layout tricks the paper relies on (INT4 packing, RLP
// interleaving, compute-aware reorder) are explicit transformation functions
// in src/kernels and src/quant rather than strided views, mirroring how the
// CUDA implementation stores pre-transformed weights in global memory.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <numeric>
#include <vector>

#include "common/check.h"

namespace qserve {

template <typename T>
class TensorT {
 public:
  TensorT() = default;

  explicit TensorT(std::vector<int64_t> shape) : shape_(std::move(shape)) {
    int64_t n = 1;
    for (int64_t d : shape_) {
      QS_CHECK_GE(d, 0);
      n *= d;
    }
    data_.assign(static_cast<size_t>(n), T{});
  }

  TensorT(std::initializer_list<int64_t> shape)
      : TensorT(std::vector<int64_t>(shape)) {}

  static TensorT zeros(std::vector<int64_t> shape) {
    return TensorT(std::move(shape));
  }

  static TensorT full(std::vector<int64_t> shape, T value) {
    TensorT t(std::move(shape));
    std::fill(t.data_.begin(), t.data_.end(), value);
    return t;
  }

  const std::vector<int64_t>& shape() const { return shape_; }
  int ndim() const { return static_cast<int>(shape_.size()); }
  int64_t dim(int i) const {
    QS_CHECK(i >= 0 && i < ndim());
    return shape_[static_cast<size_t>(i)];
  }
  int64_t numel() const { return static_cast<int64_t>(data_.size()); }

  // 2-D convenience accessors (most tensors here are matrices).
  int64_t rows() const {
    QS_CHECK_EQ(ndim(), 2);
    return shape_[0];
  }
  int64_t cols() const {
    QS_CHECK_EQ(ndim(), 2);
    return shape_[1];
  }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  T& operator[](int64_t i) {
    QS_DCHECK(i >= 0 && i < numel());
    return data_[static_cast<size_t>(i)];
  }
  const T& operator[](int64_t i) const {
    QS_DCHECK(i >= 0 && i < numel());
    return data_[static_cast<size_t>(i)];
  }

  T& at2(int64_t r, int64_t c) {
    QS_DCHECK(ndim() == 2 && r >= 0 && r < shape_[0] && c >= 0 &&
              c < shape_[1]);
    return data_[static_cast<size_t>(r * shape_[1] + c)];
  }
  const T& at2(int64_t r, int64_t c) const {
    QS_DCHECK(ndim() == 2 && r >= 0 && r < shape_[0] && c >= 0 &&
              c < shape_[1]);
    return data_[static_cast<size_t>(r * shape_[1] + c)];
  }

  T* row(int64_t r) { return data() + r * cols(); }
  const T* row(int64_t r) const { return data() + r * cols(); }

  TensorT reshaped(std::vector<int64_t> new_shape) const {
    TensorT t;
    t.shape_ = std::move(new_shape);
    int64_t n = 1;
    for (int64_t d : t.shape_) n *= d;
    QS_CHECK_EQ(n, numel());
    t.data_ = data_;
    return t;
  }

  bool same_shape(const TensorT& other) const {
    return shape_ == other.shape_;
  }

  std::vector<T>& vec() { return data_; }
  const std::vector<T>& vec() const { return data_; }

 private:
  std::vector<int64_t> shape_;
  std::vector<T> data_;
};

using Tensor = TensorT<float>;
using I8Tensor = TensorT<int8_t>;
using U8Tensor = TensorT<uint8_t>;
using U16Tensor = TensorT<uint16_t>;
using I32Tensor = TensorT<int32_t>;

// Max absolute value of a row segment; the building block of every
// quantization-scale computation in the paper.
template <typename T>
inline float abs_max(const T* x, int64_t n) {
  float m = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    const float a = x[i] < 0 ? -static_cast<float>(x[i])
                             : static_cast<float>(x[i]);
    if (a > m) m = a;
  }
  return m;
}

inline float max_abs_diff(const Tensor& a, const Tensor& b) {
  QS_CHECK(a.same_shape(b));
  float m = 0.0f;
  for (int64_t i = 0; i < a.numel(); ++i) {
    const float d = std::abs(a[i] - b[i]);
    if (d > m) m = d;
  }
  return m;
}

inline double mse(const Tensor& a, const Tensor& b) {
  QS_CHECK(a.same_shape(b));
  double s = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) {
    const double d = double(a[i]) - double(b[i]);
    s += d * d;
  }
  return a.numel() > 0 ? s / double(a.numel()) : 0.0;
}

}  // namespace qserve
