// Johnson-Lindenstrauss sign sketch (Theorem 4.1 uses it to reduce the
// m-dimensional Frobenius norms ||exp(Phi/2) Q_i||_F^2 to r = O(eps^-2 log m)
// dimensions; see [DG03, IM98]).
//
// The sketch matrix Pi is r x m with i.i.d. entries +-1/sqrt(r), each sign
// a fair coin (Rademacher entries). E[||Pi v||^2] = ||v||^2, and the JL
// bound holds as for Gaussian entries (Achlioptas 2003, "Database-friendly
// random projections"): each estimate is within (1 +- eps) with
// probability 1 - 1/poly(m) for r = c eps^-2 log m.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "util/common.hpp"

namespace psdp::rand {

/// Number of sketch rows sufficient for (1 +- eps) norm preservation of
/// poly(m) vectors with the stated failure probability delta.
/// r = ceil(8 (ln(m) + ln(1/delta)) / eps^2), the constant from the
/// Dasgupta-Gupta analysis.
Index jl_rows(Index m, Real eps, Real delta = 1e-3);

/// Dense sign sketch. Entry (j, i) is +1/sqrt(r) or -1/sqrt(r): its sign is
/// bit (i mod 64) of draw floor(i / 64) of row j's stream
/// Rng(stream_seed(seed, j)), OR-ed into the sign bit of 1/sqrt(r). Every
/// entry is a pure function of (seed, j, i), so row(), apply(), the
/// materialized constructor and fill_block under any split into panels see
/// identical bits, at any thread count and on any ISA; a sketch is
/// reproducible and shareable across processes.
class SignSketch {
 public:
  /// Builds an r x m sketch, materialized row-major.
  SignSketch(Index rows, Index cols, std::uint64_t seed);

  /// A sketch whose entries are never materialized: rows are generated on
  /// demand by fill_block() straight into caller panels. row()/apply() are
  /// unavailable on a deferred sketch. This is the form the blocked
  /// bigDotExp path uses -- it touches each sketch row exactly once.
  static SignSketch deferred(Index rows, Index cols, std::uint64_t seed);

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }

  /// Row j as a span of length cols(). Materialized sketches only.
  std::span<const Real> row(Index j) const;

  /// y = Pi x  (y has length rows()). Parallel over rows. Materialized only.
  void apply(std::span<const Real> x, std::span<Real> y) const;

  /// ||Pi x||^2, the JL estimate of ||x||^2. Materialized only.
  Real sketch_norm2(std::span<const Real> x) const;

  /// Writes sketch rows [first, first + count) as the *columns* of `panel`,
  /// a row-major cols() x count matrix: panel(i, t) = Pi(first + t, i).
  /// This is the layout the blocked Taylor kernels consume. The count row
  /// streams advance together, at most 64 at a time with their states on
  /// the stack, and the panel is written in its own row-major order. Runs
  /// on the caller (no pool region) and allocates nothing beyond the
  /// panel's capacity-preserving reshape.
  void fill_block(Index first, Index count, linalg::Matrix& panel) const;

 private:
  SignSketch() = default;

  Index rows_ = 0;
  Index cols_ = 0;
  std::uint64_t seed_ = 0;
  std::vector<Real> data_;  ///< row-major rows_ x cols_; empty when deferred
};

/// The sketch's earlier name, still spelled by perfbench/harness.cpp.
using GaussianSketch = SignSketch;

}  // namespace psdp::rand
