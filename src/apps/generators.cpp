#include "apps/generators.hpp"

#include <cmath>
#include <numbers>

#include "rand/rng.hpp"

namespace psdp::apps {

using linalg::Matrix;
using linalg::Vector;

PackingInstance figure1_instance() {
  Matrix a1(2, 2);
  a1(0, 0) = 1;
  a1(1, 1) = 0.25;

  Matrix a2(2, 2);
  a2(0, 0) = 0.25;
  a2(1, 1) = 1;

  // A3: rotated ellipse, diag(3/8, 1/10) conjugated by a 45-degree rotation.
  // Sized so the caption's combination A1/2 + A2/2 + A3 is exactly tight:
  // A1/2 + A2/2 = 0.625 I, and A3 adds 0.375 along its major axis.
  const Matrix r = Matrix::rotation2d(std::numbers::pi / 4);
  Matrix d(2, 2);
  d(0, 0) = 0.375;
  d(1, 1) = 0.1;
  Matrix a3 = linalg::gemm(r, linalg::gemm(d, r.transposed()));
  a3.symmetrize();

  return PackingInstance({a1, a2, a3});
}

PackingInstance random_ellipses(const EllipseOptions& options) {
  PSDP_CHECK(options.n >= 1 && options.m >= 1, "random_ellipses: bad sizes");
  PSDP_CHECK(options.rank >= 1 && options.rank <= options.m,
             "random_ellipses: rank must lie in [1, m]");
  PSDP_CHECK(options.scale_min > 0 && options.scale_max >= options.scale_min,
             "random_ellipses: bad scale range");
  std::vector<Matrix> constraints;
  constraints.reserve(static_cast<std::size_t>(options.n));
  for (Index i = 0; i < options.n; ++i) {
    rand::Rng rng(rand::stream_seed(options.seed, static_cast<std::uint64_t>(i)));
    Matrix a(options.m, options.m);
    for (Index r = 0; r < options.rank; ++r) {
      Vector u(options.m);
      for (Index j = 0; j < options.m; ++j) u[j] = rng.normal();
      const Real nrm = linalg::norm2(u);
      PSDP_ASSERT(nrm > 0);
      u.scale(1 / nrm);
      const Real s = rng.uniform(options.scale_min, options.scale_max);
      a.add_scaled(Matrix::outer(u), s);
    }
    a.symmetrize();
    constraints.push_back(std::move(a));
  }
  return PackingInstance(std::move(constraints));
}

PackingInstance needle_width_family(const NeedleOptions& options) {
  PSDP_CHECK(options.width > 0, "needle width must be positive");
  EllipseOptions benign;
  benign.n = std::max<Index>(1, options.n - 1);
  benign.m = options.m;
  benign.rank = std::min<Index>(3, options.m);
  benign.seed = options.seed;
  PackingInstance base = random_ellipses(benign);

  std::vector<Matrix> constraints = base.constraints();
  Matrix needle(options.m, options.m);
  needle(0, 0) = options.width;
  constraints.push_back(std::move(needle));
  return PackingInstance(std::move(constraints));
}

FactorizedPackingInstance random_factorized(const FactorizedOptions& options) {
  PSDP_CHECK(options.n >= 1 && options.m >= 1, "random_factorized: bad sizes");
  PSDP_CHECK(options.rank >= 1, "random_factorized: rank must be positive");
  PSDP_CHECK(options.nnz_per_column >= 1 &&
                 options.nnz_per_column <= options.m,
             "random_factorized: nnz_per_column must lie in [1, m]");
  std::vector<sparse::FactorizedPsd> items;
  items.reserve(static_cast<std::size_t>(options.n));
  for (Index i = 0; i < options.n; ++i) {
    rand::Rng rng(rand::stream_seed(options.seed, static_cast<std::uint64_t>(i)));
    std::vector<sparse::Triplet> triplets;
    for (Index c = 0; c < options.rank; ++c) {
      for (Index k = 0; k < options.nnz_per_column; ++k) {
        const Index row = rng.uniform_index(options.m);
        const Real sign = rng.uniform() < 0.5 ? -1.0 : 1.0;
        const Real v = sign * rng.uniform(options.value_min, options.value_max);
        triplets.push_back({row, c, v});
      }
    }
    items.emplace_back(
        sparse::Csr::from_triplets(options.m, options.rank, std::move(triplets)));
    // Duplicate (row, col) draws merge in from_triplets; with a sign flip
    // they may cancel to an all-zero factor -- regenerate deterministically.
    if (items.back().trace() <= 0) {
      std::vector<sparse::Triplet> fallback;
      fallback.push_back({rng.uniform_index(options.m), 0, 1.0});
      items.back() = sparse::FactorizedPsd(
          sparse::Csr::from_triplets(options.m, options.rank,
                                     std::move(fallback)));
    }
  }
  return FactorizedPackingInstance(sparse::FactorizedSet(std::move(items)));
}

DiagonalLpInstance diagonal_lp(const DiagonalLpOptions& options) {
  PSDP_CHECK(options.groups >= 1 && options.per_group >= 1,
             "diagonal_lp: bad sizes");
  PSDP_CHECK(options.d_min > 0 && options.d_max >= options.d_min,
             "diagonal_lp: bad diagonal range");
  rand::Rng rng(options.seed);
  const Index m = options.groups;
  DiagonalLpInstance result;
  std::vector<Matrix> constraints;
  result.opt = 0;
  for (Index g = 0; g < m; ++g) {
    Real min_d = std::numeric_limits<Real>::infinity();
    for (Index j = 0; j < options.per_group; ++j) {
      const Real d = rng.uniform(options.d_min, options.d_max);
      Matrix a(m, m);
      a(g, g) = d;
      constraints.push_back(std::move(a));
      min_d = std::min(min_d, d);
    }
    result.opt += 1 / min_d;
  }
  result.instance = PackingInstance(std::move(constraints));
  return result;
}

MatchingLpInstance complete_graph_matching_lp(Index k) {
  PSDP_CHECK(k >= 2, "complete_graph_matching_lp: need at least 2 vertices");
  const Index edges = k * (k - 1) / 2;
  Matrix p(k, edges);
  Index e = 0;
  for (Index u = 0; u < k; ++u) {
    for (Index v = u + 1; v < k; ++v) {
      p(u, e) = 1;
      p(v, e) = 1;
      ++e;
    }
  }
  MatchingLpInstance result;
  result.lp = core::PackingLp(std::move(p));
  // Every edge at 1/(k-1) saturates every vertex: OPT = C(k,2)/(k-1) = k/2.
  result.opt = static_cast<Real>(k) / 2;
  return result;
}

MatchingLpInstance star_graph_matching_lp(Index k) {
  PSDP_CHECK(k >= 1, "star_graph_matching_lp: need at least 1 leaf");
  // Vertex 0 is the hub; edge e joins the hub to leaf e+1.
  Matrix p(k + 1, k);
  for (Index e = 0; e < k; ++e) {
    p(0, e) = 1;
    p(e + 1, e) = 1;
  }
  MatchingLpInstance result;
  result.lp = core::PackingLp(std::move(p));
  result.opt = 1;  // the hub constraint caps the total
  return result;
}

MatchingLpInstance path_graph_matching_lp(Index k) {
  PSDP_CHECK(k >= 2, "path_graph_matching_lp: need at least 2 vertices");
  Matrix p(k, k - 1);
  for (Index e = 0; e < k - 1; ++e) {
    p(e, e) = 1;
    p(e + 1, e) = 1;
  }
  MatchingLpInstance result;
  result.lp = core::PackingLp(std::move(p));
  result.opt = static_cast<Real>(k / 2);  // bipartite => integral LP
  return result;
}

MatchingLpInstance cycle_graph_matching_lp(Index k) {
  PSDP_CHECK(k >= 3, "cycle_graph_matching_lp: need at least 3 vertices");
  Matrix p(k, k);  // edge e joins vertices e and (e+1) mod k
  for (Index e = 0; e < k; ++e) {
    p(e, e) = 1;
    p((e + 1) % k, e) = 1;
  }
  MatchingLpInstance result;
  result.lp = core::PackingLp(std::move(p));
  result.opt = static_cast<Real>(k) / 2;  // x_e = 1/2 everywhere is optimal
  return result;
}

core::PackingLp random_packing_lp(const RandomLpOptions& options) {
  PSDP_CHECK(options.rows >= 1 && options.cols >= 1, "random_packing_lp: bad sizes");
  PSDP_CHECK(options.density > 0 && options.density <= 1,
             "random_packing_lp: density must lie in (0,1]");
  PSDP_CHECK(options.value_min > 0 && options.value_max >= options.value_min,
             "random_packing_lp: bad value range");
  rand::Rng rng(options.seed);
  Matrix p(options.rows, options.cols);
  for (Index j = 0; j < options.rows; ++j) {
    for (Index i = 0; i < options.cols; ++i) {
      if (rng.uniform(0, 1) < options.density) {
        p(j, i) = rng.uniform(options.value_min, options.value_max);
      }
    }
  }
  // No zero column: plant one entry on an empty column (deterministic row).
  for (Index i = 0; i < options.cols; ++i) {
    Real sum = 0;
    for (Index j = 0; j < options.rows; ++j) sum += p(j, i);
    if (sum == 0) {
      p(rng.uniform_index(options.rows), i) =
          rng.uniform(options.value_min, options.value_max);
    }
  }
  return core::PackingLp(std::move(p));
}

}  // namespace psdp::apps
