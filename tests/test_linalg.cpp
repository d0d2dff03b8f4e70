// Unit and property tests for the dense LU substrate (linalg/).

#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "stats/rng.hpp"

namespace rumr::linalg {
namespace {

TEST(Matrix, ZeroInitialized) {
  const Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) EXPECT_EQ(m(r, c), 0.0);
  }
}

TEST(Matrix, InitializerList) {
  const Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m(0, 1), 2.0);
  EXPECT_EQ(m(1, 0), 3.0);
}

TEST(Matrix, IdentityMultiplyIsIdentity) {
  const Matrix eye = Matrix::identity(4);
  const std::vector<double> x = {1.0, -2.0, 3.0, 0.5};
  EXPECT_EQ(eye.multiply(x), x);
}

// Shape checks are exceptions, not asserts, so these hold in release builds.
TEST(Matrix, MisShapedOperandsThrowInEveryBuild) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
  const Matrix m(3, 2);
  EXPECT_THROW((void)m.multiply(std::vector<double>(3, 1.0)), std::invalid_argument);
  EXPECT_EQ(m.multiply(std::vector<double>(2, 1.0)).size(), 3u);
}

TEST(Lu, MisShapedCallsThrowInEveryBuild) {
  const Matrix tall(3, 2);
  const Matrix square = Matrix::identity(3);
  const std::vector<double> three(3, 1.0);
  const std::vector<double> two(2, 1.0);

  EXPECT_THROW((void)lu_factor(tall), std::invalid_argument);
  EXPECT_THROW((void)solve(tall, three), std::invalid_argument);
  EXPECT_THROW((void)determinant(tall), std::invalid_argument);
  EXPECT_THROW((void)solve(square, two), std::invalid_argument);
  EXPECT_THROW((void)residual_inf_norm(square, two, three), std::invalid_argument);
  EXPECT_THROW((void)residual_inf_norm(square, three, two), std::invalid_argument);

  LuDecomposition f = lu_factor(square);
  EXPECT_THROW((void)lu_solve(f, two), std::invalid_argument);
  f.pivots.pop_back();
  EXPECT_THROW((void)lu_solve(f, three), std::invalid_argument);

  EXPECT_EQ(solve(square, three), three);
  EXPECT_EQ(residual_inf_norm(square, three, three), 0.0);
}

TEST(Lu, SolvesDiagonalSystem) {
  Matrix a(3, 3);
  a(0, 0) = 2.0;
  a(1, 1) = 4.0;
  a(2, 2) = 8.0;
  const auto x = solve(a, {2.0, 8.0, 32.0});
  ASSERT_EQ(x.size(), 3u);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
  EXPECT_NEAR(x[2], 4.0, 1e-12);
}

TEST(Lu, SolvesKnownSystemRequiringPivoting) {
  // The MI-1 geometric system that exposed the interleaved-swap bug: the
  // pivot pattern swaps rows after partial elimination.
  const Matrix a{{1, -7.0 / 6, 0, 0}, {0, 1, -7.0 / 6, 0}, {0, 0, 1, -7.0 / 6}, {1, 1, 1, 1}};
  const std::vector<double> b = {0, 0, 0, 1000};
  const auto x = solve(a, b);
  ASSERT_EQ(x.size(), 4u);
  // alpha_{i+1} = (6/7) alpha_i, sum = 1000 => alpha_0 = 343000/1105.
  EXPECT_NEAR(x[0], 343000.0 / 1105.0, 1e-9);
  EXPECT_NEAR(x[1] / x[0], 6.0 / 7.0, 1e-12);
  EXPECT_NEAR(x[2] / x[1], 6.0 / 7.0, 1e-12);
  EXPECT_NEAR(residual_inf_norm(a, x, b), 0.0, 1e-9);
}

TEST(Lu, ZeroPivotRequiringSwap) {
  const Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  const auto x = solve(a, {5.0, 7.0});
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 5.0, 1e-12);
}

TEST(Lu, DetectsSingularMatrix) {
  const Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_TRUE(lu_factor(a).singular);
  EXPECT_TRUE(solve(a, {1.0, 2.0}).empty());
  EXPECT_EQ(determinant(a), 0.0);
}

TEST(Lu, DeterminantOfKnownMatrices) {
  EXPECT_NEAR(determinant(Matrix::identity(5)), 1.0, 1e-12);
  const Matrix a{{2.0, 0.0}, {0.0, 3.0}};
  EXPECT_NEAR(determinant(a), 6.0, 1e-12);
  const Matrix swapped{{0.0, 1.0}, {1.0, 0.0}};
  EXPECT_NEAR(determinant(swapped), -1.0, 1e-12);
}

/// Property: for random well-conditioned systems across sizes, solve()
/// residuals vanish.
class LuRandomSystems : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LuRandomSystems, ResidualIsTiny) {
  const std::size_t n = GetParam();
  stats::Rng rng(1000 + n);
  for (int trial = 0; trial < 10; ++trial) {
    Matrix a(n, n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
      a(r, r) += 2.0 * static_cast<double>(n);  // Diagonal dominance.
    }
    std::vector<double> b(n);
    for (double& v : b) v = rng.uniform(-10.0, 10.0);
    const auto x = solve(a, b);
    ASSERT_EQ(x.size(), n);
    EXPECT_LT(residual_inf_norm(a, x, b), 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuRandomSystems,
                         ::testing::Values<std::size_t>(1, 2, 3, 5, 8, 13, 21, 50, 120));

TEST(Lu, ReconstructsPaTimesEqualsLu) {
  stats::Rng rng(77);
  const std::size_t n = 6;
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-5.0, 5.0);
  }
  const LuDecomposition f = lu_factor(a);
  ASSERT_FALSE(f.singular);

  // Apply recorded swaps to a copy of A.
  Matrix pa = a;
  for (std::size_t k = 0; k < n; ++k) {
    if (f.pivots[k] != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(pa(k, c), pa(f.pivots[k], c));
    }
  }
  // Multiply L * U from the packed factorization.
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      double sum = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        const double lv = r > k ? f.lu(r, k) : (r == k ? 1.0 : 0.0);
        const double uv = k <= c ? f.lu(k, c) : 0.0;
        sum += lv * uv;
      }
      EXPECT_NEAR(sum, pa(r, c), 1e-10);
    }
  }
}

}  // namespace
}  // namespace rumr::linalg
