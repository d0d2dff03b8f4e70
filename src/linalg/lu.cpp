#include "linalg/lu.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace rumr::linalg {

namespace {
constexpr double kPivotEpsilon = 1e-13;
using detail::require_size;
}

LuDecomposition lu_factor(Matrix a) {
  require_size(a.cols(), a.rows(), "lu_factor: matrix columns");
  const std::size_t n = a.rows();
  LuDecomposition f;
  f.pivots.resize(n);

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: pick the largest magnitude entry in column k.
    std::size_t pivot_row = k;
    double pivot_mag = std::abs(a(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double mag = std::abs(a(r, k));
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = r;
      }
    }
    f.pivots[k] = pivot_row;
    if (pivot_row != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a(k, c), a(pivot_row, c));
      f.sign = -f.sign;
    }
    if (pivot_mag <= kPivotEpsilon) {
      f.singular = true;
      continue;  // Leave the column as-is; solves will refuse.
    }
    const double inv_pivot = 1.0 / a(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double factor = a(r, k) * inv_pivot;
      a(r, k) = factor;
      for (std::size_t c = k + 1; c < n; ++c) a(r, c) -= factor * a(k, c);
    }
  }
  f.lu = std::move(a);
  return f;
}

std::vector<double> lu_solve(const LuDecomposition& f, const std::vector<double>& b) {
  assert(!f.singular && "lu_solve on a singular factorization");
  const std::size_t n = f.lu.rows();
  require_size(f.lu.cols(), n, "lu_solve: factor columns");
  require_size(f.pivots.size(), n, "lu_solve: pivots");
  require_size(b.size(), n, "lu_solve: b");
  std::vector<double> x = b;

  // Apply the full row permutation first (the swap at step k touches rows
  // >= k, so interleaving it with the elimination below would clobber
  // partially eliminated entries), then forward-substitute L (unit diagonal).
  for (std::size_t k = 0; k < n; ++k) {
    if (f.pivots[k] != k) std::swap(x[k], x[f.pivots[k]]);
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t r = k + 1; r < n; ++r) x[r] -= f.lu(r, k) * x[k];
  }
  // Back-substitute U.
  for (std::size_t k = n; k-- > 0;) {
    for (std::size_t c = k + 1; c < n; ++c) x[k] -= f.lu(k, c) * x[c];
    x[k] /= f.lu(k, k);
  }
  return x;
}

std::vector<double> solve(const Matrix& a, const std::vector<double>& b) {
  require_size(b.size(), a.rows(), "solve: b");
  const LuDecomposition f = lu_factor(a);
  if (f.singular) return {};
  return lu_solve(f, b);
}

double determinant(const Matrix& a) {
  const LuDecomposition f = lu_factor(a);
  if (f.singular) return 0.0;
  double det = static_cast<double>(f.sign);
  for (std::size_t i = 0; i < a.rows(); ++i) det *= f.lu(i, i);
  return det;
}

double residual_inf_norm(const Matrix& a, const std::vector<double>& x,
                         const std::vector<double>& b) {
  require_size(b.size(), a.rows(), "residual_inf_norm: b");
  const std::vector<double> ax = a.multiply(x);
  double worst = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) worst = std::max(worst, std::abs(ax[i] - b[i]));
  return worst;
}

}  // namespace rumr::linalg
