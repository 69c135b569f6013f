// The scalar reference backend: the pre-SIMD kernel loops, verbatim.
//
// This translation unit is compiled with the project's default flags (no
// -m arch options), exactly like sparse/csr.cpp was before the simd layer
// existed -- baseline x86-64 / aarch64 codegen has no scalar FMA to
// contract into, so every per-element update is the separate multiply+add
// the pre-SIMD kernels performed, in the same order. Forcing
// Isa::kScalar therefore reproduces the pre-PR solver trajectories
// bit-for-bit (tests/test_simd.cpp pins this against inlined copies of
// the original loops).
//
// The float kernels are new with the mixed-precision mode (no pre-PR
// anchor); they mirror the double loops with plain float multiply+add so
// the backend stays internally consistent. psi_rows is new too; its
// anchor is spmm_rows followed by Matrix::add_scaled, per constraint.

#include <algorithm>
#include <cmath>

#include "simd/detail.hpp"
#include "simd/kernel_table.hpp"

namespace psdp::simd {
namespace scalar {
namespace {

template <typename T, int B>
void gather_columns(const Index* offsets, const Index* rows, const T* values,
                    Index jb, Index je, const T* x, T* y) {
  for (Index j = jb; j < je; ++j) {
    T acc[B] = {};
    const Index b0 = offsets[j];
    const Index e0 = offsets[j + 1];
    for (Index e = b0; e < e0; ++e) {
      const T v = values[e];
      const T* in = x + rows[e] * B;
      for (int t = 0; t < B; ++t) acc[t] += v * in[t];
    }
    T* out = y + j * B;
    for (int t = 0; t < B; ++t) out[t] = acc[t];
  }
}

template <typename T>
void gather_columns_any(const Index* offsets, const Index* rows,
                        const T* values, Index jb, Index je, Index b,
                        const T* x, T* y) {
  for (Index j = jb; j < je; ++j) {
    T* out = y + j * b;
    std::fill(out, out + b, T{0});
    const Index b0 = offsets[j];
    const Index e0 = offsets[j + 1];
    for (Index e = b0; e < e0; ++e) {
      const T v = values[e];
      const T* in = x + rows[e] * b;
      for (Index t = 0; t < b; ++t) out[t] += v * in[t];
    }
  }
}

template <typename T>
void gather_dispatch(const Index* offsets, const Index* rows, const T* values,
                     Index jb, Index je, Index b, const T* x, T* y) {
  switch (b) {
    case 1: gather_columns<T, 1>(offsets, rows, values, jb, je, x, y); break;
    case 2: gather_columns<T, 2>(offsets, rows, values, jb, je, x, y); break;
    case 4: gather_columns<T, 4>(offsets, rows, values, jb, je, x, y); break;
    case 8: gather_columns<T, 8>(offsets, rows, values, jb, je, x, y); break;
    case 16: gather_columns<T, 16>(offsets, rows, values, jb, je, x, y); break;
    case 32: gather_columns<T, 32>(offsets, rows, values, jb, je, x, y); break;
    default: gather_columns_any(offsets, rows, values, jb, je, b, x, y); break;
  }
}

constexpr Index kGatherPrefetch = 12;

template <int B>
inline void prefetch_panel_row(const double* in) {
#if defined(__GNUC__) || defined(__clang__)
  for (int t = 0; t < B; t += 8) __builtin_prefetch(in + t, 0, 1);
#else
  (void)in;
#endif
}

template <int B>
void gather_columns_window(const Index* seg_starts, Index s0, Index s1,
                           Index cols, const Index* rows,
                           const double* values, Index jb, Index je,
                           const double* x, double* y) {
  for (Index j = jb; j < je; ++j) {
    const Index b0 = seg_starts[s0 * cols + j];
    const Index e0 = seg_starts[s1 * cols + j];
    if (b0 == e0) continue;
    double acc[B];
    double* out = y + j * B;
    for (int t = 0; t < B; ++t) acc[t] = out[t];
    for (Index e = b0; e < e0; ++e) {
      if constexpr (B >= 4) {
        if (e + kGatherPrefetch < e0) {
          prefetch_panel_row<B>(x + rows[e + kGatherPrefetch] * B);
        }
      }
      const double v = values[e];
      const double* in = x + rows[e] * B;
      for (int t = 0; t < B; ++t) acc[t] += v * in[t];
    }
    for (int t = 0; t < B; ++t) out[t] = acc[t];
  }
}

void gather_columns_window_any(const Index* seg_starts, Index s0, Index s1,
                               Index cols, const Index* rows,
                               const double* values, Index jb, Index je,
                               Index b, const double* x, double* y) {
  for (Index j = jb; j < je; ++j) {
    const Index b0 = seg_starts[s0 * cols + j];
    const Index e0 = seg_starts[s1 * cols + j];
    double* out = y + j * b;
    for (Index e = b0; e < e0; ++e) {
      const double v = values[e];
      const double* in = x + rows[e] * b;
      for (Index t = 0; t < b; ++t) out[t] += v * in[t];
    }
  }
}

template <typename T>
void spmm_rows_impl(const Index* offsets, const Index* cols, const T* values,
                    Index ib, Index ie, Index b, const T* x, T* y) {
  for (Index i = ib; i < ie; ++i) {
    T* out = y + i * b;
    std::fill(out, out + b, T{0});
    const Index e0 = offsets[i];
    const Index e1 = offsets[i + 1];
    for (Index e = e0; e < e1; ++e) {
      const T v = values[e];
      const T* in = x + cols[e] * b;
      for (Index t = 0; t < b; ++t) out[t] += v * in[t];
    }
  }
}

/// The implicit-Psi row pass: per output row and column tile, each
/// segment's spmm_rows_impl reduction, then the add_scaled update
/// sum += w * acc (separate multiply and add), the sum starting at +0.
template <typename T>
void psi_rows_impl(const Index* row_segs, const PsiSegment* segs,
                   const PsiTerm<T>* terms, Index ib, Index ie, Index b,
                   T* y) {
  constexpr Index kTile = 32;
  T acc[kTile];
  T sum[kTile];
  for (Index i = ib; i < ie; ++i) {
    T* out = y + i * b;
    for (Index t0 = 0; t0 < b; t0 += kTile) {
      const Index width = std::min(kTile, b - t0);
      std::fill(sum, sum + width, T{0});
      for (Index k = row_segs[i]; k < row_segs[i + 1]; ++k) {
        const PsiSegment& seg = segs[k];
        const PsiTerm<T>& term = terms[seg.term];
        if (term.s == nullptr) continue;
        std::fill(acc, acc + width, T{0});
        for (Index e = seg.begin; e < seg.end; ++e) {
          const T v = term.values[e];
          const T* in = term.s + term.cols[e] * b + t0;
          for (Index t = 0; t < width; ++t) acc[t] += v * in[t];
        }
        for (Index t = 0; t < width; ++t) sum[t] += term.w * acc[t];
      }
      std::copy(sum, sum + width, out + t0);
    }
  }
}

template <typename T>
void scatter_rows_impl(const Index* offsets, const Index* cols,
                       const T* values, Index ib, Index ie, Index b,
                       const T* x, T* y) {
  for (Index i = ib; i < ie; ++i) {
    const T* in = x + i * b;
    const Index e0 = offsets[i];
    const Index e1 = offsets[i + 1];
    for (Index e = e0; e < e1; ++e) {
      T* row = y + cols[e] * b;
      const T v = values[e];
      for (Index t = 0; t < b; ++t) row[t] += v * in[t];
    }
  }
}

template <typename T>
void taylor_step_impl(T* next, T* y, T scale, Index lo, Index hi) {
  for (Index i = lo; i < hi; ++i) {
    const T v = next[i] * scale;
    next[i] = v;
    y[i] += v;
  }
}

void s_spmm_rows(const Index* offsets, const Index* cols, const double* values,
                 Index ib, Index ie, Index b, const double* x, double* y) {
  spmm_rows_impl(offsets, cols, values, ib, ie, b, x, y);
}

void s_psi_rows(const Index* row_segs, const PsiSegment* segs,
                const PsiTerm<double>* terms, Index ib, Index ie, Index b,
                double* y) {
  psi_rows_impl(row_segs, segs, terms, ib, ie, b, y);
}

void s_gather_panel(const Index* offsets, const Index* rows,
                    const double* values, Index jb, Index je, Index b,
                    const double* x, double* y) {
  gather_dispatch(offsets, rows, values, jb, je, b, x, y);
}

void s_gather_window(const Index* seg_starts, Index s0, Index s1, Index cols,
                     const Index* rows, const double* values, Index jb,
                     Index je, Index b, const double* x, double* y) {
  switch (b) {
    case 1:
      gather_columns_window<1>(seg_starts, s0, s1, cols, rows, values, jb, je,
                               x, y);
      break;
    case 2:
      gather_columns_window<2>(seg_starts, s0, s1, cols, rows, values, jb, je,
                               x, y);
      break;
    case 4:
      gather_columns_window<4>(seg_starts, s0, s1, cols, rows, values, jb, je,
                               x, y);
      break;
    case 8:
      gather_columns_window<8>(seg_starts, s0, s1, cols, rows, values, jb, je,
                               x, y);
      break;
    case 16:
      gather_columns_window<16>(seg_starts, s0, s1, cols, rows, values, jb,
                                je, x, y);
      break;
    case 32:
      gather_columns_window<32>(seg_starts, s0, s1, cols, rows, values, jb,
                                je, x, y);
      break;
    default:
      gather_columns_window_any(seg_starts, s0, s1, cols, rows, values, jb,
                                je, b, x, y);
      break;
  }
}

void s_scatter_rows(const Index* offsets, const Index* cols,
                    const double* values, Index ib, Index ie, Index b,
                    const double* x, double* y) {
  scatter_rows_impl(offsets, cols, values, ib, ie, b, x, y);
}

void s_taylor_step(double* next, double* y, double scale, Index lo,
                   Index hi) {
  taylor_step_impl(next, y, scale, lo, hi);
}

double s_sum_sq(const double* x, Index n) {
  double acc = 0;
  for (Index i = 0; i < n; ++i) acc += x[i] * x[i];
  return acc;
}

void s_spmm_rows_f(const Index* offsets, const Index* cols,
                   const float* values, Index ib, Index ie, Index b,
                   const float* x, float* y) {
  spmm_rows_impl(offsets, cols, values, ib, ie, b, x, y);
}

void s_psi_rows_f(const Index* row_segs, const PsiSegment* segs,
                  const PsiTerm<float>* terms, Index ib, Index ie, Index b,
                  float* y) {
  psi_rows_impl(row_segs, segs, terms, ib, ie, b, y);
}

void s_gather_panel_f(const Index* offsets, const Index* rows,
                      const float* values, Index jb, Index je, Index b,
                      const float* x, float* y) {
  gather_dispatch(offsets, rows, values, jb, je, b, x, y);
}

void s_scatter_rows_f(const Index* offsets, const Index* cols,
                      const float* values, Index ib, Index ie, Index b,
                      const float* x, float* y) {
  scatter_rows_impl(offsets, cols, values, ib, ie, b, x, y);
}

void s_taylor_step_f(float* next, float* y, float scale, Index lo, Index hi) {
  taylor_step_impl(next, y, scale, lo, hi);
}

}  // namespace
}  // namespace scalar

const KernelTable* scalar_kernel_table() {
  static const KernelTable table = [] {
    KernelTable t;
    t.spmm_rows = &scalar::s_spmm_rows;
    t.psi_rows = &scalar::s_psi_rows;
    t.gather_panel = &scalar::s_gather_panel;
    t.gather_window = &scalar::s_gather_window;
    t.scatter_rows = &scalar::s_scatter_rows;
    t.taylor_step = &scalar::s_taylor_step;
    t.sum_sq = &scalar::s_sum_sq;
    t.spmm_rows_f = &scalar::s_spmm_rows_f;
    t.psi_rows_f = &scalar::s_psi_rows_f;
    t.gather_panel_f = &scalar::s_gather_panel_f;
    t.scatter_rows_f = &scalar::s_scatter_rows_f;
    t.taylor_step_f = &scalar::s_taylor_step_f;
    t.sum_sq_f = &detail::compensated_sum_sq_f;
    t.convert_d2f = &detail::convert_panel_d2f;
    return t;
  }();
  return &table;
}

}  // namespace psdp::simd
