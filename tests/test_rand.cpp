#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "par/parallel.hpp"
#include "par/thread_pool.hpp"
#include "rand/jl.hpp"
#include "rand/rng.hpp"

namespace psdp::rand {
namespace {

TEST(Rng, DeterministicForFixedSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const Real u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const Real u = rng.uniform(-2, 3);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 3.0);
  }
  EXPECT_EQ(rng.uniform(1, 1), 1);  // degenerate interval is deterministic
  EXPECT_THROW(rng.uniform(2, 1), InvalidArgument);
}

TEST(Rng, UniformIndexInRange) {
  Rng rng(9);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) counts[static_cast<std::size_t>(rng.uniform_index(10))]++;
  for (int c : counts) EXPECT_GT(c, 700);  // roughly uniform
  EXPECT_THROW(rng.uniform_index(0), InvalidArgument);
}

TEST(Rng, NormalMomentsMatchStandardGaussian) {
  Rng rng(10);
  const int n = 200000;
  Real sum = 0, sum2 = 0, sum4 = 0;
  for (int i = 0; i < n; ++i) {
    const Real x = rng.normal();
    sum += x;
    sum2 += x * x;
    sum4 += x * x * x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
  EXPECT_NEAR(sum4 / n, 3.0, 0.15);  // Gaussian kurtosis
}

TEST(Rng, NormalWithParameters) {
  Rng rng(11);
  Real sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 0.1);
  EXPECT_NEAR(sum / n, 5.0, 0.01);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(12);
  Rng child = parent.split();
  // Child and parent must diverge.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.next_u64() == child.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, StreamSeedsDistinct) {
  const std::uint64_t a = stream_seed(42, 0);
  const std::uint64_t b = stream_seed(42, 1);
  const std::uint64_t c = stream_seed(43, 0);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a, stream_seed(42, 0));  // deterministic
}

TEST(JlRows, FormulaAndValidation) {
  const Index r = jl_rows(1000, 0.5);
  EXPECT_GT(r, 0);
  EXPECT_LT(jl_rows(1000, 0.5), jl_rows(1000, 0.1));  // tighter eps needs more
  EXPECT_LT(jl_rows(10, 0.3), jl_rows(100000, 0.3));  // more vectors need more
  EXPECT_THROW(jl_rows(0, 0.5), InvalidArgument);
  EXPECT_THROW(jl_rows(10, 0.0), InvalidArgument);
  EXPECT_THROW(jl_rows(10, 0.5, 2.0), InvalidArgument);
}

// The GaussianSketch suite keeps the name of the rand::GaussianSketch
// alias; the SignSketch suite below pins the sign layout itself.
TEST(GaussianSketch, DeterministicForSeed) {
  const SignSketch a(8, 32, 5);
  const SignSketch b(8, 32, 5);
  for (Index j = 0; j < 8; ++j) {
    const auto ra = a.row(j);
    const auto rb = b.row(j);
    for (std::size_t i = 0; i < ra.size(); ++i) EXPECT_EQ(ra[i], rb[i]);
  }
}

TEST(GaussianSketch, ApplyMatchesManualDotProducts) {
  const SignSketch pi(4, 16, 77);
  std::vector<Real> x(16);
  for (std::size_t i = 0; i < 16; ++i) x[i] = std::cos(static_cast<Real>(i));
  std::vector<Real> y(4);
  pi.apply(x, y);
  for (Index j = 0; j < 4; ++j) {
    const auto row = pi.row(j);
    Real expect = 0;
    for (std::size_t i = 0; i < 16; ++i) expect += row[i] * x[i];
    EXPECT_NEAR(y[static_cast<std::size_t>(j)], expect, 1e-12);
  }
}

TEST(GaussianSketch, NormPreservationOnAverage) {
  // E ||Pi x||^2 = ||x||^2; with r rows the relative error concentrates at
  // ~sqrt(2/r). Use a generous 5-sigma band.
  const Index r = 512;
  const Index m = 64;
  std::vector<Real> x(static_cast<std::size_t>(m));
  for (Index i = 0; i < m; ++i) x[static_cast<std::size_t>(i)] = 1.0;
  const Real true_norm2 = static_cast<Real>(m);
  int failures = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const SignSketch pi(r, m, seed);
    const Real est = pi.sketch_norm2(x);
    if (std::abs(est - true_norm2) > 5 * std::sqrt(2.0 / r) * true_norm2) {
      ++failures;
    }
  }
  EXPECT_LE(failures, 1);
}

TEST(GaussianSketch, RejectsBadShapes) {
  EXPECT_THROW(SignSketch(0, 4, 1), InvalidArgument);
  const SignSketch pi(2, 4, 1);
  std::vector<Real> wrong(3), y(2);
  EXPECT_THROW(pi.apply(wrong, y), InvalidArgument);
}

TEST(GaussianSketch, RowVarianceIsOneOverRows) {
  const Index r = 16;
  const Index m = 20000;
  const SignSketch pi(r, m, 3);
  Real sum2 = 0;
  for (Index j = 0; j < r; ++j) {
    for (Real v : pi.row(j)) sum2 += v * v;
  }
  // Each entry squares to 1/r, so the sum of squares is m up to rounding.
  EXPECT_NEAR(sum2 / static_cast<Real>(m), 1.0, 1e-12);
}

TEST(SignSketch, EveryEntryIsPlusOrMinusOneOverSqrtRows) {
  const Index r = 9;  // 1/sqrt(9) is not a power of two
  const Index m = 130;
  const SignSketch pi(r, m, 11);
  const Real scale = 1.0 / std::sqrt(static_cast<Real>(r));
  Index plus = 0;
  for (Index j = 0; j < r; ++j) {
    for (const Real v : pi.row(j)) {
      EXPECT_TRUE(v == scale || v == -scale) << v;
      if (v > 0) ++plus;
    }
  }
  EXPECT_GT(plus, 0);
  EXPECT_LT(plus, r * m);
}

// Entry (j, i) is signed by bit (i mod 64) of draw floor(i / 64) of row j's
// stream: set is -1/sqrt(r), clear is +1/sqrt(r).
TEST(SignSketch, EntryIsTheStreamBitOfItsColumn) {
  const Index r = 5;
  const Index m = 150;  // three draws, the last one partly used
  const std::uint64_t seed = 2024;
  const SignSketch pi(r, m, seed);
  const Real scale = 1.0 / std::sqrt(static_cast<Real>(r));
  for (Index j = 0; j < r; ++j) {
    Rng rng(stream_seed(seed, static_cast<std::uint64_t>(j)));
    std::uint64_t draw = 0;
    const auto row = pi.row(j);
    for (Index i = 0; i < m; ++i) {
      if (i % 64 == 0) draw = rng.next_u64();
      const Real want = ((draw >> (i % 64)) & 1) != 0 ? -scale : scale;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(row[static_cast<std::size_t>(i)]),
                std::bit_cast<std::uint64_t>(want))
          << "row " << j << " column " << i;
    }
  }
}

// fill_block's panels are the materialized rows bit for bit, for panel
// widths on both sides of the 64 streams it advances together.
TEST(SignSketch, FillBlockMatchesRows) {
  const Index r = 80;
  const Index first = 7;
  for (const Index m : {100, 130, 2048}) {
    const SignSketch materialized(r, m, 31);
    const SignSketch lazy = SignSketch::deferred(r, m, 31);
    for (const Index count : {1, 5, 16, 70}) {
      linalg::Matrix panel;
      lazy.fill_block(first, count, panel);
      ASSERT_EQ(panel.rows(), m);
      ASSERT_EQ(panel.cols(), count);
      bool same = true;
      for (Index t = 0; t < count; ++t) {
        const auto row = materialized.row(first + t);
        for (Index i = 0; i < m; ++i) {
          same = same && std::bit_cast<std::uint64_t>(panel(i, t)) ==
                             std::bit_cast<std::uint64_t>(
                                 row[static_cast<std::size_t>(i)]);
        }
      }
      EXPECT_TRUE(same) << "m " << m << " count " << count;
    }
  }
}

TEST(SignSketch, PlusShareIsOneHalf) {
  const Index r = 16;
  const Index m = 20000;
  const SignSketch pi(r, m, 3);
  Index plus = 0;
  for (Index j = 0; j < r; ++j) {
    for (const Real v : pi.row(j)) plus += v > 0 ? 1 : 0;
  }
  // The count of + signs is Binomial(rm, 1/2): sigma = sqrt(rm) / 2.
  const Real n = static_cast<Real>(r * m);
  EXPECT_LE(std::abs(static_cast<Real>(plus) - n / 2), 5 * std::sqrt(n) / 2);
}

TEST(SignSketch, FillBlockOpensNoPoolRegion) {
  const int before = par::num_threads();
  par::set_num_threads(4);
  const SignSketch lazy = SignSketch::deferred(64, 4096, 5);
  linalg::Matrix panel;
  lazy.fill_block(0, 16, panel);  // sizes the panel
  const std::uint64_t regions = par::global_pool().dispatched_batches();
  lazy.fill_block(16, 16, panel);
  lazy.fill_block(0, 64, panel);
  EXPECT_EQ(par::global_pool().dispatched_batches(), regions);
  par::set_num_threads(before);
}

}  // namespace
}  // namespace psdp::rand
