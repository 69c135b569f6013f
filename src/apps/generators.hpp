// Instance generators for the experiment harness.
//
// The paper's evaluation surface is its complexity claims, so the workloads
// are parameterized families that stress exactly the quantities those
// claims are about:
//
//  * figure1_instance     -- the 3-ellipse, 2-dimensional packing instance
//                            of Figure 1 (A1, A2 axis-aligned, A3 rotated).
//  * random_ellipses      -- n random low-rank PSD "ellipsoids" in R^m with
//                            bounded width; the generic E1/E2 workload.
//  * needle_width_family  -- a benign ellipse instance plus one "needle"
//                            constraint with lambda_max = rho; sweeping rho
//                            scales the width without changing n, m, or the
//                            optimum's scale. The E3 (width-independence)
//                            workload.
//  * random_factorized    -- sparse factorized instances A_i = Q_i Q_i^T
//                            with a target nonzero budget; the E4
//                            (nearly-linear work) workload.
#pragma once

#include <cstdint>

#include "core/instance.hpp"
#include "core/poslp.hpp"

namespace psdp::apps {

using core::FactorizedPackingInstance;
using core::PackingInstance;

/// The Figure 1 instance: A1 = diag(1, 1/4), A2 = diag(1/4, 1) (axis
/// aligned), A3 = rotation(pi/4) diag(3/8, 1/10) rotation(pi/4)^T. The
/// caption's arithmetic (A1 + A2 just over the unit ball, A1/2 + A2/2 + A3
/// exactly tight) pins the packing optimum near 2.
PackingInstance figure1_instance();

struct EllipseOptions {
  Index n = 64;        ///< number of constraints
  Index m = 16;        ///< dimension
  Index rank = 3;      ///< rank of each ellipsoid
  Real scale_min = 0.5;  ///< eigenvalue scale range of each ellipsoid
  Real scale_max = 2.0;
  std::uint64_t seed = 42;
};

/// n random rank-`rank` PSD matrices A_i = sum_j s_j u_j u_j^T with random
/// unit directions and scales in [scale_min, scale_max].
PackingInstance random_ellipses(const EllipseOptions& options);

struct NeedleOptions {
  Index n = 32;   ///< benign constraints (the needle is added on top)
  Index m = 8;
  Real width = 64;  ///< lambda_max of the needle constraint
  std::uint64_t seed = 7;
};

/// random_ellipses(n-1 benign constraints) plus one needle constraint
/// width * e_1 e_1^T. The instance width is ~`width`; everything else is
/// O(1), so sweeping `width` isolates the width dependence of a solver.
PackingInstance needle_width_family(const NeedleOptions& options);

struct FactorizedOptions {
  Index n = 64;
  Index m = 256;
  Index rank = 2;              ///< columns per factor Q_i
  Index nnz_per_column = 8;    ///< sparsity of each factor column
  Real value_min = 0.1;
  Real value_max = 1.0;
  std::uint64_t seed = 99;
};

/// Sparse factorized instance with ~n * rank * nnz_per_column total factor
/// nonzeros (the q of Corollary 1.2).
FactorizedPackingInstance random_factorized(const FactorizedOptions& options);

struct DiagonalLpOptions {
  Index groups = 4;      ///< number of independent axes (the dimension m)
  Index per_group = 3;   ///< constraints sharing each axis
  Real d_min = 0.25;     ///< diagonal value range
  Real d_max = 4.0;
  std::uint64_t seed = 33;
};

/// A positive *linear* program in SDP clothing (the Luby-Nisan/Young
/// setting the paper generalizes; all ellipsoids axis-aligned and
/// block-disjoint): constraint i in group g is d_i e_g e_g^T, so the
/// packing program decomposes per axis and
///     OPT = sum_g 1 / min_{i in g} d_i    (analytic).
struct DiagonalLpInstance {
  PackingInstance instance;
  Real opt = 0;  ///< the exact optimum
};

DiagonalLpInstance diagonal_lp(const DiagonalLpOptions& options);

/// Fractional-matching packing LP of the complete graph K_k: one variable
/// per edge, one constraint per vertex (each vertex covered at most once).
/// The optimum is exactly k/2 (set every edge to 1/(k-1)), which makes this
/// the analytic workload for the scalar solver.
struct MatchingLpInstance {
  core::PackingLp lp;
  Real opt = 0;  ///< k / 2
};

MatchingLpInstance complete_graph_matching_lp(Index k);

/// Star graph K_{1,k}: k edges all sharing the hub vertex, so at most one
/// unit of matching fits regardless of k. OPT = 1.
MatchingLpInstance star_graph_matching_lp(Index k);

/// Path P_k on k vertices (k-1 edges). The fractional matching polytope of
/// a bipartite graph is integral, so OPT = floor(k/2).
MatchingLpInstance path_graph_matching_lp(Index k);

/// Cycle C_k (k >= 3). Every x_e = 1/2 saturates every vertex, so the
/// fractional optimum is exactly k/2 -- strictly above the integral
/// matching number floor(k/2) when k is odd, the classic integrality gap
/// witness.
MatchingLpInstance cycle_graph_matching_lp(Index k);

struct RandomLpOptions {
  Index rows = 16;      ///< constraints
  Index cols = 32;      ///< variables
  Real density = 0.3;   ///< expected fraction of nonzero entries
  Real value_min = 0.5;
  Real value_max = 2.0;
  std::uint64_t seed = 17;
};

/// Random positive packing LP; every column is guaranteed at least one
/// nonzero (no unbounded variables).
core::PackingLp random_packing_lp(const RandomLpOptions& options);

}  // namespace psdp::apps
