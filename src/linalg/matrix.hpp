#pragma once

/// \file matrix.hpp
/// Minimal dense row-major matrix. Sized for the Multi-Installment schedule
/// solver (systems of a few hundred unknowns), not for large-scale BLAS work.
///
/// Shapes are checked once, at each entry point that takes a second operand
/// (here and in lu.hpp), with std::invalid_argument in every build.
/// Element access is checked by assert only: it is the LU's inner loop.

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

namespace rumr::linalg {

namespace detail {

/// Throws std::invalid_argument unless `actual == expected`; `what` names
/// the operand.
inline void require_size(std::size_t actual, std::size_t expected, const char* what) {
  if (actual != expected) {
    throw std::invalid_argument(std::string(what) + " has size " + std::to_string(actual) +
                                ", expected " + std::to_string(expected));
  }
}

}  // namespace detail

/// Dense row-major matrix of doubles with bounds-checked (assert) access.
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// Construction from nested initializer lists, e.g. {{1,2},{3,4}}.
  /// All rows must have equal length (std::invalid_argument otherwise).
  Matrix(std::initializer_list<std::initializer_list<double>> rows) {
    rows_ = rows.size();
    cols_ = rows_ > 0 ? rows.begin()->size() : 0;
    data_.reserve(rows_ * cols_);
    for (const auto& row : rows) {
      detail::require_size(row.size(), cols_, "Matrix initializer row");
      data_.insert(data_.end(), row.begin(), row.end());
    }
  }

  /// n x n identity.
  [[nodiscard]] static Matrix identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
  }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) noexcept {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const noexcept {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Matrix-vector product. Throws std::invalid_argument unless
  /// x.size() == cols().
  [[nodiscard]] std::vector<double> multiply(const std::vector<double>& x) const {
    detail::require_size(x.size(), cols_, "multiply: x");
    std::vector<double> y(rows_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r) {
      double acc = 0.0;
      for (std::size_t c = 0; c < cols_; ++c) acc += (*this)(r, c) * x[c];
      y[r] = acc;
    }
    return y;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace rumr::linalg
