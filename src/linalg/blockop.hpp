// Block (multi-vector) operators: the SpMM-style counterpart of SymmetricOp.
//
// A BlockOp applies a symmetric operator to a row-major n x b *panel* of b
// vectors at once (panel column t is vector t). Streaming the operator's
// data once per panel instead of once per vector amortizes the sparse-matrix
// traversal across all b right-hand sides and turns the inner loops into
// contiguous length-b dense updates -- the single biggest constant-factor
// lever in bigDotExp, whose r sketch rows are exactly such a panel.
//
// Panels are plain linalg::Matrix (row-major, so row i holds the i-th
// coordinate of all b vectors contiguously). Operators must accept any
// panel width; callers pick the width (the block size) to trade cache
// footprint against traversal amortization.
//
// This header also hosts the panel-kernel timing primitive
// (time_block_kernel) of the bench_kernels sweeps.
#pragma once

#include <functional>

#include "linalg/matrix.hpp"
#include "linalg/matrixf.hpp"
#include "linalg/power.hpp"

namespace psdp::linalg {

/// A symmetric linear operator applied to a row-major n x b panel:
/// y(:, t) = A x(:, t) for every column t. Implementations may assume
/// x and y do not alias and must resize y to x's shape if needed.
using BlockOp = std::function<void(const Matrix& x, Matrix& y)>;

/// Float32 panel operator of the mixed-precision sketch mode: same
/// contract as BlockOp over MatrixF panels. Only the sketch/Taylor panels
/// run in float; every certificate-bearing quantity stays double (see
/// BigDotExpOptions::panel_precision).
using BlockOpF = std::function<void(const MatrixF& x, MatrixF& y)>;

/// Fallback adapter: applies a single-vector operator column by column.
/// Correct for any SymmetricOp but amortizes nothing; real data structures
/// (Csr::apply_block, FactorizedSet::weighted_apply_block) provide native
/// panel kernels instead.
BlockOp block_op_from_symmetric(SymmetricOp op, Index dim);

/// Copies column `col` of a panel into a vector (resizing it).
void panel_column(const Matrix& panel, Index col, Vector& out);

/// Writes a vector into column `col` of a panel.
void set_panel_column(Matrix& panel, Index col, const Vector& in);

/// Best-of-`reps` wall-clock seconds of a panel-kernel thunk. The minimum
/// over repetitions (not the mean) is what the bench_kernels sweeps
/// record: kernel comparisons want the noise-free cost, and the floor of a
/// few reps is the cheapest robust estimate of it.
double time_block_kernel(int reps, const std::function<void()>& body);

}  // namespace psdp::linalg
