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

#include "util/common.hpp"

namespace psdp::simd {

/// The kernels one backend provides. All pointers are always non-null.
struct KernelTable {
  // --- double-precision kernels -----------------------------------------

  /// Row-range SpMM: for each row i in [ib, ie), y[i*b .. i*b+b) =
  /// sum over the row's entries of values[k] * x[cols[k]*b ..). Overwrites
  /// the output rows. b = 1 is the SpMV inner body.
  void (*spmm_rows)(const Index* offsets, const Index* cols,
                    const double* values, Index ib, Index ie, Index b,
                    const double* x, double* y);

  /// Row-list SpMM accumulate, the implicit-Psi row step: for each listed
  /// row i = rows[k], k in [kb, ke), y[i*b .. i*b+b) += w * (spmm_rows'
  /// reduction of row i over x). Each row reduces through spmm_rows' own
  /// per-element chain and the weighted add is a rounded product, then an
  /// add (never contracted), so a listed row gets exactly the bits of
  /// spmm_rows into a temporary followed by Matrix::add_scaled; rows not
  /// listed are never touched. Listed rows must be distinct.
  void (*spmm_rows_accumulate)(const Index* offsets, const Index* cols,
                               const double* values, const Index* rows,
                               Index kb, Index ke, Index b, double w,
                               const double* x, double* y);

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
  /// dot accumulation of bigdotexp (scatter of Q over the exp panel).
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

  /// spmm_rows_accumulate over float values and panels (float weight).
  void (*spmm_rows_accumulate_f)(const Index* offsets, const Index* cols,
                                 const float* values, const Index* rows,
                                 Index kb, Index ke, Index b, float w,
                                 const float* x, float* y);

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
