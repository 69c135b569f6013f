// The function-pointer table each SIMD backend exports.
//
// One table instance per compiled backend (scalar / AVX2 / AVX-512 / NEON),
// selected at runtime by simd/dispatch.cpp (see simd/simd.hpp for the seam
// and its determinism contract). The signatures are raw pointers + index
// ranges rather than Matrix/Csr references so the backends stay independent
// of the container layers and a single table serves csr.cpp, taylor.cpp and
// bigdotexp.cpp alike.
//
// Layout conventions shared by every kernel:
//  * Panels are row-major with `b` contiguous columns per row: element
//    (i, t) lives at p[i * b + t].
//  * CSR triples (offsets, cols, values) and CSC triples (offsets, rows,
//    values) follow the Csr class layout; CSC rows are ascending within
//    each column, which is what pins the gather-family accumulation order.
//  * Range arguments are half-open [lo, hi) so callers can parallelize by
//    chunking; every kernel is pure over its range (no hidden state).
#pragma once

#include <cstdint>

#include "util/common.hpp"

namespace psdp::simd {

/// One constraint's operands in the implicit-Psi row pass (psi_rows): the
/// CSR columns and values of its factor Q_i, its k_i x b row-major panel
/// S_i = Q_i^T V, and its weight x_i. A null `s` marks a zero weight: the
/// row pass skips the term's segments.
template <typename T>
struct PsiTerm {
  const Index* cols = nullptr;
  const T* values = nullptr;
  const T* s = nullptr;
  T w = 0;
};

/// One (row, constraint) pair of the implicit-Psi row pass: Q_term's
/// entries of that row are its CSR entries [begin, end). 32-bit fields
/// keep the index at 12 bytes a segment.
struct PsiSegment {
  std::uint32_t term;
  std::uint32_t begin;
  std::uint32_t end;
};

/// The kernels one backend provides. All pointers are always non-null.
struct KernelTable {
  // --- double-precision kernels -----------------------------------------

  /// Row-range SpMM: for each row i in [ib, ie), y[i*b .. i*b+b) =
  /// sum over the row's entries of values[k] * x[cols[k]*b ..). Overwrites
  /// the output rows. b = 1 is the SpMV inner body.
  void (*spmm_rows)(const Index* offsets, const Index* cols,
                    const double* values, Index ib, Index ie, Index b,
                    const double* x, double* y);

  /// The implicit-Psi row pass: for each output row i in [ib, ie),
  /// y[i*b .. i*b+b) = sum over the row's segments s = segs[row_segs[i]
  /// .. row_segs[i+1]), in order, of terms[s.term].w * (spmm_rows'
  /// reduction of that term's entries [s.begin, s.end) over its panel
  /// terms[s.term].s). The sum starts at +0, each segment's row reduces
  /// through spmm_rows' own per-element chain, and each weighted add is a
  /// rounded product, then an add (never contracted) -- so the row gets
  /// exactly the bits of spmm_rows into a temporary followed by
  /// Matrix::add_scaled, segment by segment. Segments whose term has a
  /// null panel are skipped; rows without segments are written as zeros.
  void (*psi_rows)(const Index* row_segs, const PsiSegment* segs,
                   const PsiTerm<double>* terms, Index ib, Index ie, Index b,
                   double* y);

  /// Column-range CSC gather: for each output column j in [jb, je),
  /// y[j*b ..) = the serial ascending-row reduction of column j's entries
  /// over the rows() x b input panel x. Overwrites the output rows.
  void (*gather_panel)(const Index* offsets, const Index* rows,
                       const double* values, Index jb, Index je, Index b,
                       const double* x, double* y);

  /// One window of the segmented-column gather: folds each owned column's
  /// window-local entry span (seg_starts rows s0..s1, grid row-major with
  /// `cols` columns) onto y[j*b ..) with a load-modify-store. Callers sweep
  /// windows sequentially so each output still reduces in ascending row
  /// order -- bitwise identical to gather_panel under every window size.
  void (*gather_window)(const Index* seg_starts, Index s0, Index s1,
                        Index cols, const Index* rows, const double* values,
                        Index jb, Index je, Index b, const double* x,
                        double* y);

  /// Row-range CSR transpose scatter: for each row i in [ib, ie) and each
  /// entry (i, cols[k], v), y[cols[k]*b ..) += v * x[i*b ..). Accumulates
  /// into y (callers zero or chunk-combine). Also the fused per-constraint
  /// dot blocks of bigdotexp for factors without a transpose index (the
  /// indexed ones gather through gather_panel, bitwise the same).
  void (*scatter_rows)(const Index* offsets, const Index* cols,
                       const double* values, Index ib, Index ie, Index b,
                       const double* x, double* y);

  /// Fused Taylor recurrence step over [lo, hi): v = next[i] * scale;
  /// next[i] = v; y[i] += v. The store of v rounds the product before the
  /// add in every backend (never contracted), so all ISAs agree bitwise --
  /// and match the pre-SIMD scale(); add_scaled() pair exactly.
  void (*taylor_step)(double* next, double* y, double scale, Index lo,
                      Index hi);

  /// Sum of squares of x[0..n). Lane-parallel reduction on the vector
  /// backends (fixed combine order, deterministic per ISA; differs from
  /// the scalar chain by reassociation only).
  double (*sum_sq)(const double* x, Index n);

  // --- float32 panel kernels (mixed-precision sketch mode) --------------

  /// spmm_rows over float values and panels.
  void (*spmm_rows_f)(const Index* offsets, const Index* cols,
                      const float* values, Index ib, Index ie, Index b,
                      const float* x, float* y);

  /// psi_rows over float values, panels and weights.
  void (*psi_rows_f)(const Index* row_segs, const PsiSegment* segs,
                     const PsiTerm<float>* terms, Index ib, Index ie,
                     Index b, float* y);

  /// gather_panel over float values and panels.
  void (*gather_panel_f)(const Index* offsets, const Index* rows,
                         const float* values, Index jb, Index je, Index b,
                         const float* x, float* y);

  /// scatter_rows over float values and panels.
  void (*scatter_rows_f)(const Index* offsets, const Index* cols,
                         const float* values, Index ib, Index ie, Index b,
                         const float* x, float* y);

  /// taylor_step over float panels.
  void (*taylor_step_f)(float* next, float* y, float scale, Index lo,
                        Index hi);

  /// Compensated (Neumaier) double-precision sum of squares of a float
  /// panel: each product double(x[i]) * double(x[i]) is exact, the running
  /// sum carries a compensation term. Identical code in every backend, so
  /// the float dot reductions agree bitwise across ISAs.
  double (*sum_sq_f)(const float* x, Index n);

  /// dst[i] = float(src[i]) for i in [0, n) (panel down-conversion).
  void (*convert_d2f)(const double* src, float* dst, Index n);
};

}  // namespace psdp::simd
