#pragma once

/// \file lu.hpp
/// LU decomposition with partial pivoting and linear solves. Every function
/// here throws std::invalid_argument on a shape mismatch: a matrix that must
/// be square and is not, or a vector whose length does not match the matrix.

#include <vector>

#include "linalg/matrix.hpp"

namespace rumr::linalg {

/// Result of an LU factorization (Doolittle, partial pivoting). The L and U
/// factors are packed into one matrix; `pivots[k]` records the row swapped
/// into position k at step k.
struct LuDecomposition {
  Matrix lu;                      ///< Packed L (unit diagonal, below) and U (on/above).
  std::vector<std::size_t> pivots;
  int sign = 1;                   ///< Permutation parity, for the determinant.
  bool singular = false;          ///< True if a pivot was (numerically) zero.
};

/// Factors a square matrix. The input is copied.
[[nodiscard]] LuDecomposition lu_factor(Matrix a);

/// Solves LU x = b for one right-hand side. Requires a non-singular
/// factorization; b.size() must equal its order.
[[nodiscard]] std::vector<double> lu_solve(const LuDecomposition& f,
                                           const std::vector<double>& b);

/// Convenience: factor-and-solve A x = b. Returns an empty vector when A is
/// singular, so callers can detect infeasibility without exceptions.
[[nodiscard]] std::vector<double> solve(const Matrix& a, const std::vector<double>& b);

/// Determinant via LU (0 when singular).
[[nodiscard]] double determinant(const Matrix& a);

/// Max-norm of the residual A x - b; useful for verifying solve quality.
/// x.size() must equal a.cols() and b.size() a.rows().
[[nodiscard]] double residual_inf_norm(const Matrix& a, const std::vector<double>& x,
                                       const std::vector<double>& b);

}  // namespace rumr::linalg
