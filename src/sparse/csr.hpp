// Compressed sparse row (CSR) matrices with parallel matvec.
//
// The factorized input format of Theorem 4.1 stores each A_i = Q_i Q_i^T
// with Q_i sparse; everything bigDotExp does is SpMV with Q_i, Q_i^T and
// the (sparse) running sum Psi. Costs are charged to the CostMeter so the
// nearly-linear-work claim (Corollary 1.2) can be measured in the model.
//
// Transpose kernels: `Q^T x` has three panel kernels -- the per-output-row
// CSC gather, the segmented-column gather (the same reduction swept one
// cache-sized row window at a time), and the owned-column scatter. Which
// one runs is a fixed rule on what build_transpose_index() left behind
// (see apply_transpose_block); the gather and the segmented gather are
// bitwise identical to each other at every thread count, so the rule
// never changes results. See docs/ARCHITECTURE.md ("The sparse layer")
// and docs/TUNING.md.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/matrixf.hpp"
#include "linalg/vector.hpp"
#include "simd/simd.hpp"
#include "util/common.hpp"
#include "util/tunables.hpp"

namespace psdp::sparse {

using linalg::Matrix;
using linalg::MatrixF;
using linalg::Vector;

/// Triplet used by the COO builder.
struct Triplet {
  Index row = 0;    ///< row index
  Index col = 0;    ///< column index
  Real value = 0;   ///< entry value (duplicates are summed)
};

/// Options of Csr::build_transpose_index(): the segment grid.
struct TransposeIndexOptions {
  /// Base row granularity of the segment grid; the apply-time window is a
  /// whole multiple of this. 0 disables the grid (and with it the
  /// segmented kernel). Matrices with rows <= segment_rows skip the grid:
  /// a single segment is exactly the plain gather. Defaulted from the
  /// tunable registry (`segment_rows`, default 1024).
  Index segment_rows = util::tunable_segment_rows();
  /// Skip the grid when its offset table would exceed this multiple of the
  /// nonzero count -- wide matrices (many columns, few segments' worth of
  /// rows each) would pay more index than data. Tall factors sail under
  /// the default; tests raise it to force grids on tiny shapes.
  Real max_segment_index_ratio = 1.0;
  /// Bytes of input panel one segmented-gather window targets at apply
  /// time (window rows ~ window_bytes / (8 b), rounded to whole segments).
  /// A pure locality knob -- every window size produces identical bits --
  /// sized by default for the shared cache level, since all threads sweep
  /// the same window. When a single window covers the whole matrix the
  /// segmented kernel delegates to the plain gather (same bits, none of
  /// the windowing overhead); tests shrink this to force multi-window
  /// sweeps on tiny matrices. Defaulted from the tunable registry
  /// (`window_bytes`, default 1 MiB).
  Index window_bytes = util::tunable_window_bytes();
};

// Provenance shim: the perfbench harness prints which transpose kernel a
// factor runs ("transpose_plan=...") through the names below. They
// describe the fixed rule of Csr::apply_transpose_block; nothing in the
// library consults them.

/// The three transpose-panel kernels (see Csr::apply_transpose_block).
enum class TransposeKernel {
  kGather,     ///< per-output-row CSC gather (apply_transpose_block_indexed)
  kSegmented,  ///< the gather swept one row window at a time (same bits)
  kScatter,    ///< owned-column scatter, the only kernel without an index
};

/// Stable lower-case name of a kernel ("gather", "segmented", "scatter").
const char* kernel_name(TransposeKernel kernel);

/// The kernel a matrix's transpose dispatch runs, at every panel width.
struct KernelPlanEntry {
  Index width = 0;  ///< 0: the entry covers every panel width
  TransposeKernel choice = TransposeKernel::kGather;
};

/// One-entry description of the fixed dispatch (Csr::kernel_plan()):
/// never measured, and valid under whichever ISA is active.
class KernelPlan {
 public:
  explicit KernelPlan(TransposeKernel choice) : entries_{{{0, choice}}} {}
  const std::array<KernelPlanEntry, 1>& entries() const { return entries_; }
  bool measured() const { return false; }
  simd::Isa isa() const { return simd::active_isa(); }

 private:
  std::array<KernelPlanEntry, 1> entries_;
};

/// No-op: there is no plan cache left to clear.
void clear_transpose_plan_cache();

/// A sparse rows() x cols() matrix in CSR layout, with optional cached
/// transpose (CSC) and segment indexes selecting the transpose kernel.
class Csr {
 public:
  Csr() = default;

  /// Build from triplets; duplicates are summed, explicit zeros dropped.
  static Csr from_triplets(Index rows, Index cols,
                           std::vector<Triplet> triplets);

  /// Adopt already-assembled CSR arrays verbatim: `offsets` has rows+1
  /// non-decreasing entries starting at 0 and ending at columns.size(),
  /// column indices are strictly ascending within each row and in range,
  /// values are finite and parallel to the columns. No sorting, merging or
  /// copying beyond the moves -- this is the zero-rearrangement entry point
  /// of the chunked binary loader and the streaming MatrixMarket reader,
  /// which assemble canonical CSR themselves and must not pay (or
  /// re-randomize) a triplet round-trip. Throws InvalidArgument naming the
  /// first malformed datum.
  static Csr from_parts(Index rows, Index cols, std::vector<Index> offsets,
                        std::vector<Index> columns, std::vector<Real> values);

  /// Dense -> sparse conversion, dropping entries with |v| <= drop_tol.
  static Csr from_dense(const Matrix& dense, Real drop_tol = 0);

  /// n x n identity.
  static Csr identity(Index n);

  /// Number of rows.
  Index rows() const { return rows_; }
  /// Number of columns.
  Index cols() const { return cols_; }
  /// Number of stored nonzeros.
  Index nnz() const { return static_cast<Index>(values_.size()); }

  /// Row-offset array (rows()+1 entries).
  std::span<const Index> row_offsets() const { return offsets_; }
  /// Column index of each stored entry, row-major.
  std::span<const Index> col_indices() const { return columns_; }
  /// Value of each stored entry, row-major.
  std::span<const Real> values() const { return values_; }

  /// Column indices of row i.
  std::span<const Index> row_cols(Index i) const;
  /// Values of row i (parallel to row_cols(i)).
  std::span<const Real> row_vals(Index i) const;

  /// y = A x (parallel over rows).
  void apply(const Vector& x, Vector& y) const;
  /// y = A x, allocating the result.
  Vector apply(const Vector& x) const;

  /// Build (idempotently) the cached transpose index: a CSC view of the
  /// matrix (column offsets, row indices and values in column-major order,
  /// rows ascending within each column). With the index present the
  /// transpose kernels switch from the owned-column scatter to per-output
  /// -row *gathers*: each output row of A^T x is one contiguous sweep over
  /// its column's entries with the accumulator in registers -- one pass
  /// over the nonzeros, no per-chunk partial buffers, and bitwise
  /// deterministic across thread counts (each output is reduced serially
  /// in row order). Costs one extra copy of the nonzeros; FactorizedPsd
  /// builds it automatically for tall factors, where the gather wins (see
  /// README "The kernel layer").
  ///
  /// Alongside the CSC view this builds (when `options` permit) the
  /// *segment grid* -- per-column offsets of each options.segment_rows-row
  /// window, enabling the segmented gather.
  void build_transpose_index(const TransposeIndexOptions& options = {});
  /// True once build_transpose_index() has run.
  bool has_transpose_index() const { return t_built_; }
  /// The cached CSC view (empty before build_transpose_index()): column
  /// offsets (cols()+1 entries), the row of each entry (ascending within
  /// each column) and its value -- the operands of the simd gather
  /// kernels, for callers that run them inside their own parallel loops.
  std::span<const Index> transpose_offsets() const { return t_offsets_; }
  /// Row index of each CSC entry (see transpose_offsets()).
  std::span<const Index> transpose_rows() const { return t_rows_; }
  /// Value of each CSC entry (see transpose_offsets()).
  std::span<const Real> transpose_values() const { return t_values_; }
  /// True when the segment grid (and with it the segmented gather) exists.
  bool has_segment_index() const { return t_segment_rows_ > 0; }
  /// Base row granularity of the segment grid (0 = no grid).
  Index segment_rows() const { return t_segment_rows_; }

  /// The kernel apply_transpose_block runs on this matrix, as a
  /// KernelPlan description (perfbench provenance only).
  KernelPlan kernel_plan() const;

  /// y = A^T x: the transpose-index gather when built (deterministic for
  /// any thread count), the owned-column sweep otherwise (deterministic for
  /// a fixed thread count; both accumulate per output in row order, so the
  /// two paths agree bitwise).
  void apply_transpose(const Vector& x, Vector& y) const;
  /// y = A^T x, allocating the result.
  Vector apply_transpose(const Vector& x) const;

  /// Y = A X for a row-major cols() x b panel X (SpMM): the matrix is
  /// streamed once for the whole panel, parallel over row chunks, and the
  /// inner loop is a contiguous length-b dense update. Column t of Y is
  /// bit-identical to apply() on column t of X (same accumulation order).
  void apply_block(const Matrix& x, Matrix& y) const;

  /// Y = A^T X for a row-major rows() x b panel, by a fixed rule: no
  /// transpose index -> the owned-column scatter; a segment grid -> the
  /// segmented gather (which itself runs the plain gather when one window
  /// covers the matrix); otherwise the plain gather. The two gathers are
  /// bitwise identical at every width and thread count, so the rule never
  /// changes results. The overload taking `partial` recycles the scatter
  /// path's per-chunk accumulators across calls, keeping the hot path
  /// allocation-free for every kernel.
  void apply_transpose_block(const Matrix& x, Matrix& y) const;
  /// apply_transpose_block recycling the scatter path's `partial` buffer.
  void apply_transpose_block(const Matrix& x, Matrix& y,
                             std::vector<Real>& partial) const;

  /// The owned-column scatter, always available: parallel over row chunks
  /// with per-chunk cols() x b accumulators (resized into `partial`,
  /// capacity-preserving) combined in chunk order -- deterministic for a
  /// fixed thread count; stays parallel even for the narrow factor panels
  /// where column ownership would serialize.
  void apply_transpose_block_owned(const Matrix& x, Matrix& y,
                                   std::vector<Real>& partial) const;

  /// The transpose-index gather (requires build_transpose_index()): each
  /// output row j of Y accumulates column j's entries in ascending row
  /// order -- the same order as a single-chunk owned-column sweep, so the
  /// two paths agree bitwise; unlike the scatter it needs no partial
  /// buffers and its result is independent of the thread count.
  void apply_transpose_block_indexed(const Matrix& x, Matrix& y) const;

  /// The segmented-column gather (requires the segment grid): the same
  /// per-output ascending-row reduction as apply_transpose_block_indexed,
  /// but swept one row *window* at a time -- a whole multiple of
  /// segment_rows() sized by TransposeIndexOptions::window_bytes so the
  /// window's slice of the input panel (window rows x b doubles) stays
  /// cache-resident and shared across all threads, with upcoming entry
  /// rows software-prefetched -- which is what the plain gather lacks at
  /// wide panels (its strided fetches through the full rows() x b panel
  /// defeat the prefetcher). Because each output is still reduced
  /// serially in ascending row order, the result is bitwise identical to
  /// the plain gather for every window size and thread count; when one
  /// window covers the whole matrix this delegates to the plain gather
  /// outright.
  void apply_transpose_block_segmented(const Matrix& x, Matrix& y) const;

  /// Fill float32 copies of the stored values (and of the cached CSC
  /// values when the transpose index exists; `t_values_f` is left empty
  /// otherwise). The float panel kernels below take these as parameters
  /// instead of caching them here, so Csr stays cheaply copyable
  /// (FactorizedPsd::scaled) and owners control the scratch lifetime --
  /// FactorizedSet::BlockWorkspace builds the copies once at warmup.
  void fill_float_values(std::vector<float>& values_f,
                         std::vector<float>& t_values_f) const;

  /// Float32 twin of apply_block over a cols() x b MatrixF panel, using the
  /// caller's float value copy (from fill_float_values). Mixed-precision
  /// sketch mode only (see BigDotExpOptions::panel_precision); results are
  /// deterministic per ISA but carry float rounding.
  void apply_block_f(const MatrixF& x, MatrixF& y,
                     std::span<const float> values_f) const;

  /// Float32 twin of apply_transpose_block: the CSC gather when the
  /// transpose index exists (t_values_f), the owned-column scatter over
  /// `partial` chunks otherwise (values_f). No segmented dispatch -- the
  /// float path only runs on factor panels, where the plain gather is the
  /// right kernel.
  void apply_transpose_block_f(const MatrixF& x, MatrixF& y,
                               std::span<const float> values_f,
                               std::span<const float> t_values_f,
                               std::vector<float>& partial) const;

  /// Scale all values in place (keeps the cached CSC values in sync).
  Csr& scale(Real s);

  /// Dense copy.
  Matrix to_dense() const;

  /// Frobenius norm squared.
  Real frobenius_norm2() const;

  /// Sum of diagonal entries (square matrices).
  Real trace() const;

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<Index> offsets_;  ///< rows_+1 entries
  std::vector<Index> columns_;
  std::vector<Real> values_;

  /// Cached CSC view (build_transpose_index); kept in sync by scale().
  bool t_built_ = false;
  std::vector<Index> t_offsets_;  ///< cols_+1 entries
  std::vector<Index> t_rows_;     ///< row of each entry, ascending per column
  std::vector<Real> t_values_;    ///< values in column-major order

  /// Segment grid over the CSC view: t_seg_starts_[s * cols_ + j] is the
  /// offset of column j's first entry with row >= s * t_segment_rows_
  /// ((num_segments + 1) x cols_ entries, so consecutive grid rows bound
  /// each column's per-window spans -- and spans of adjacent windows
  /// concatenate, which is how one grid serves every panel width).
  Index t_segment_rows_ = 0;  ///< 0 = no grid
  Index t_window_bytes_ = 0;  ///< segmented-gather window target (see build)
  std::vector<Index> t_seg_starts_;
};

/// C = A + s * B for same-shaped CSR matrices (structural union).
Csr add_scaled(const Csr& a, const Csr& b, Real s);

/// Process-wide count of transpose-index builds actually performed
/// (idempotent re-calls do not count). The serve layer's cache-reuse
/// assertions -- "zero index rebuilds after warmup" -- difference this
/// counter around a warm batch (bench_serve, tests/test_serve.cpp).
std::uint64_t transpose_index_build_count();

}  // namespace psdp::sparse
