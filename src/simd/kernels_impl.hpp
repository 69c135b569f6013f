// Generic vectorized kernel bodies, instantiated once per SIMD backend.
//
// Included by each vector backend TU after simd/vec.hpp (and thus after
// PSDP_SIMD_NS is defined); the kernels compile against that backend's
// VecD/VecF and land in the same per-backend namespace. make_kernel_table()
// at the bottom assembles the KernelTable a backend exports.
//
// Determinism (the contract of simd/simd.hpp): every per-element update in
// every kernel here is a fused multiply-add -- Vec*::fma on whole lanes,
// fma_s/fma_sf on remainders -- so within one backend all kernels reduce a
// given output element through the same operation chain, preserving the
// sparse layer's cross-kernel bitwise guarantees. Two deliberate
// exceptions round the product before adding: taylor_step (it must match
// the scalar backend bit-for-bit, see kernel_table.hpp) and the weighted
// adds of psi_rows (they must match Matrix::add_scaled).
#pragma once

#ifndef PSDP_SIMD_NS
#error "define PSDP_SIMD_NS and include simd/vec.hpp before kernels_impl.hpp"
#endif

#include <algorithm>
#include <type_traits>

#include "simd/detail.hpp"
#include "simd/kernel_table.hpp"

namespace psdp::simd::PSDP_SIMD_NS {

namespace impl {

/// acc[0..b) += v * in[0..b): whole lanes fused, remainder scalar-fused.
/// The shared per-element primitive of the runtime-width kernels.
template <typename V, typename T>
inline void axpy_panel(T* acc, T v, const T* in, Index b) {
  constexpr Index kL = V::kLanes;
  const V vv = V::broadcast(v);
  Index t = 0;
  for (; t + kL <= b; t += kL) {
    V::fma(vv, V::load(in + t), V::load(acc + t)).store(acc + t);
  }
  if constexpr (std::is_same_v<T, double>) {
    for (; t < b; ++t) acc[t] = fma_s(v, in[t], acc[t]);
  } else {
    for (; t < b; ++t) acc[t] = fma_sf(v, in[t], acc[t]);
  }
}

/// Software-prefetch one b-wide panel row (one fetch per 64-byte line).
template <typename T, int B>
inline void prefetch_row(const T* in) {
#if defined(__GNUC__) || defined(__clang__)
  constexpr int kStride = static_cast<int>(64 / sizeof(T));
  for (int t = 0; t < B; t += kStride) __builtin_prefetch(in + t, 0, 1);
#else
  (void)in;
#endif
}

/// Entries of prefetch lead inside the windowed gather (matches the scalar
/// backend's constant; purely a latency knob, invisible to results).
constexpr Index kGatherPrefetch = 12;

// --- CSC gather --------------------------------------------------------

template <typename V, typename T, int B>
void gather_w(const Index* offsets, const Index* rows, const T* values,
              Index jb, Index je, const T* x, T* y) {
  constexpr Index kL = V::kLanes;
  if constexpr (B >= kL) {
    constexpr int kNV = B / kL;  // widths and lane counts are powers of two
    for (Index j = jb; j < je; ++j) {
      V acc[kNV];
      for (int q = 0; q < kNV; ++q) acc[q] = V::zero();
      const Index e0 = offsets[j];
      const Index e1 = offsets[j + 1];
      for (Index e = e0; e < e1; ++e) {
        const V vv = V::broadcast(values[e]);
        const T* in = x + rows[e] * B;
        for (int q = 0; q < kNV; ++q) {
          acc[q] = V::fma(vv, V::load(in + q * kL), acc[q]);
        }
      }
      T* out = y + j * B;
      for (int q = 0; q < kNV; ++q) acc[q].store(out + q * kL);
    }
  } else {
    for (Index j = jb; j < je; ++j) {
      T acc[B] = {};
      const Index e0 = offsets[j];
      const Index e1 = offsets[j + 1];
      for (Index e = e0; e < e1; ++e) {
        const T v = values[e];
        const T* in = x + rows[e] * B;
        if constexpr (std::is_same_v<T, double>) {
          for (int t = 0; t < B; ++t) acc[t] = fma_s(v, in[t], acc[t]);
        } else {
          for (int t = 0; t < B; ++t) acc[t] = fma_sf(v, in[t], acc[t]);
        }
      }
      T* out = y + j * B;
      for (int t = 0; t < B; ++t) out[t] = acc[t];
    }
  }
}

template <typename V, typename T>
void gather_any(const Index* offsets, const Index* rows, const T* values,
                Index jb, Index je, Index b, const T* x, T* y) {
  for (Index j = jb; j < je; ++j) {
    T* out = y + j * b;
    std::fill(out, out + b, T{0});
    const Index e0 = offsets[j];
    const Index e1 = offsets[j + 1];
    for (Index e = e0; e < e1; ++e) {
      axpy_panel<V>(out, values[e], x + rows[e] * b, b);
    }
  }
}

template <typename V, typename T>
void gather_dispatch(const Index* offsets, const Index* rows, const T* values,
                     Index jb, Index je, Index b, const T* x, T* y) {
  switch (b) {
    case 1: gather_w<V, T, 1>(offsets, rows, values, jb, je, x, y); break;
    case 2: gather_w<V, T, 2>(offsets, rows, values, jb, je, x, y); break;
    case 4: gather_w<V, T, 4>(offsets, rows, values, jb, je, x, y); break;
    case 8: gather_w<V, T, 8>(offsets, rows, values, jb, je, x, y); break;
    case 16: gather_w<V, T, 16>(offsets, rows, values, jb, je, x, y); break;
    case 32: gather_w<V, T, 32>(offsets, rows, values, jb, je, x, y); break;
    default: gather_any<V>(offsets, rows, values, jb, je, b, x, y); break;
  }
}

// --- segmented-column gather (one window) ------------------------------

template <typename V, int B>
void gather_window_w(const Index* seg_starts, Index s0, Index s1, Index cols,
                     const Index* rows, const double* values, Index jb,
                     Index je, const double* x, double* y) {
  constexpr Index kL = V::kLanes;
  for (Index j = jb; j < je; ++j) {
    const Index e0 = seg_starts[s0 * cols + j];
    const Index e1 = seg_starts[s1 * cols + j];
    if (e0 == e1) continue;
    double* out = y + j * B;
    if constexpr (B >= kL) {
      constexpr int kNV = B / kL;
      V acc[kNV];
      for (int q = 0; q < kNV; ++q) acc[q] = V::load(out + q * kL);
      for (Index e = e0; e < e1; ++e) {
        if constexpr (B >= 4) {
          if (e + kGatherPrefetch < e1) {
            prefetch_row<double, B>(x + rows[e + kGatherPrefetch] * B);
          }
        }
        const V vv = V::broadcast(values[e]);
        const double* in = x + rows[e] * B;
        for (int q = 0; q < kNV; ++q) {
          acc[q] = V::fma(vv, V::load(in + q * kL), acc[q]);
        }
      }
      for (int q = 0; q < kNV; ++q) acc[q].store(out + q * kL);
    } else {
      double acc[B];
      for (int t = 0; t < B; ++t) acc[t] = out[t];
      for (Index e = e0; e < e1; ++e) {
        const double v = values[e];
        const double* in = x + rows[e] * B;
        for (int t = 0; t < B; ++t) acc[t] = fma_s(v, in[t], acc[t]);
      }
      for (int t = 0; t < B; ++t) out[t] = acc[t];
    }
  }
}

template <typename V>
void gather_window_any(const Index* seg_starts, Index s0, Index s1,
                       Index cols, const Index* rows, const double* values,
                       Index jb, Index je, Index b, const double* x,
                       double* y) {
  for (Index j = jb; j < je; ++j) {
    const Index e0 = seg_starts[s0 * cols + j];
    const Index e1 = seg_starts[s1 * cols + j];
    double* out = y + j * b;
    for (Index e = e0; e < e1; ++e) {
      axpy_panel<V>(out, values[e], x + rows[e] * b, b);
    }
  }
}

// --- row-range SpMM ----------------------------------------------------

template <typename V, typename T, int B>
void spmm_w(const Index* offsets, const Index* cols, const T* values,
            Index ib, Index ie, const T* x, T* y) {
  constexpr Index kL = V::kLanes;
  for (Index i = ib; i < ie; ++i) {
    const Index e0 = offsets[i];
    const Index e1 = offsets[i + 1];
    T* out = y + i * B;
    if constexpr (B >= kL) {
      constexpr int kNV = B / kL;
      V acc[kNV];
      for (int q = 0; q < kNV; ++q) acc[q] = V::zero();
      for (Index e = e0; e < e1; ++e) {
        const V vv = V::broadcast(values[e]);
        const T* in = x + cols[e] * B;
        for (int q = 0; q < kNV; ++q) {
          acc[q] = V::fma(vv, V::load(in + q * kL), acc[q]);
        }
      }
      for (int q = 0; q < kNV; ++q) acc[q].store(out + q * kL);
    } else {
      T acc[B] = {};
      for (Index e = e0; e < e1; ++e) {
        const T v = values[e];
        const T* in = x + cols[e] * B;
        if constexpr (std::is_same_v<T, double>) {
          for (int t = 0; t < B; ++t) acc[t] = fma_s(v, in[t], acc[t]);
        } else {
          for (int t = 0; t < B; ++t) acc[t] = fma_sf(v, in[t], acc[t]);
        }
      }
      for (int t = 0; t < B; ++t) out[t] = acc[t];
    }
  }
}

template <typename V, typename T>
void spmm_any(const Index* offsets, const Index* cols, const T* values,
              Index ib, Index ie, Index b, const T* x, T* y) {
  for (Index i = ib; i < ie; ++i) {
    T* out = y + i * b;
    std::fill(out, out + b, T{0});
    const Index e0 = offsets[i];
    const Index e1 = offsets[i + 1];
    for (Index e = e0; e < e1; ++e) {
      axpy_panel<V>(out, values[e], x + cols[e] * b, b);
    }
  }
}

template <typename V, typename T>
void spmm_dispatch(const Index* offsets, const Index* cols, const T* values,
                   Index ib, Index ie, Index b, const T* x, T* y) {
  switch (b) {
    case 1: spmm_w<V, T, 1>(offsets, cols, values, ib, ie, x, y); break;
    case 2: spmm_w<V, T, 2>(offsets, cols, values, ib, ie, x, y); break;
    case 4: spmm_w<V, T, 4>(offsets, cols, values, ib, ie, x, y); break;
    case 8: spmm_w<V, T, 8>(offsets, cols, values, ib, ie, x, y); break;
    case 16: spmm_w<V, T, 16>(offsets, cols, values, ib, ie, x, y); break;
    case 32: spmm_w<V, T, 32>(offsets, cols, values, ib, ie, x, y); break;
    default: spmm_any<V>(offsets, cols, values, ib, ie, b, x, y); break;
  }
}

// --- implicit-Psi row pass ---------------------------------------------

/// One output row over columns [t0, t0 + B) of row-major panels with `ld`
/// columns: per segment in order, spmm_w's fused reduction of the term's
/// entries, then sum += w * acc as a rounded product and an add --
/// taylor_step's no-contraction rule (the build passes -ffp-contract=off,
/// so the pair is never fused), which is Matrix::add_scaled's per-element
/// chain. The sum starts at +0 and stays in registers across segments; it
/// is stored once, into out[0..B).
template <typename V, typename T, int B>
inline void psi_row_w(const PsiSegment* sb, const PsiSegment* se,
                      const PsiTerm<T>* terms, Index t0, Index ld, T* out) {
  constexpr Index kL = V::kLanes;
  if constexpr (B >= kL) {
    constexpr int kNV = B / kL;
    V sum[kNV];
    for (int q = 0; q < kNV; ++q) sum[q] = V::zero();
    for (const PsiSegment* seg = sb; seg != se; ++seg) {
      const PsiTerm<T>& term = terms[seg->term];
      if (term.s == nullptr) continue;
      V acc[kNV];
      for (int q = 0; q < kNV; ++q) acc[q] = V::zero();
      for (Index e = seg->begin; e < seg->end; ++e) {
        const V vv = V::broadcast(term.values[e]);
        const T* in = term.s + term.cols[e] * ld + t0;
        for (int q = 0; q < kNV; ++q) {
          acc[q] = V::fma(vv, V::load(in + q * kL), acc[q]);
        }
      }
      const V vw = V::broadcast(term.w);
      for (int q = 0; q < kNV; ++q) sum[q] = V::add(sum[q], V::mul(vw, acc[q]));
    }
    for (int q = 0; q < kNV; ++q) sum[q].store(out + q * kL);
  } else {
    T sum[B] = {};
    for (const PsiSegment* seg = sb; seg != se; ++seg) {
      const PsiTerm<T>& term = terms[seg->term];
      if (term.s == nullptr) continue;
      T acc[B] = {};
      for (Index e = seg->begin; e < seg->end; ++e) {
        const T v = term.values[e];
        const T* in = term.s + term.cols[e] * ld + t0;
        if constexpr (std::is_same_v<T, double>) {
          for (int t = 0; t < B; ++t) acc[t] = fma_s(v, in[t], acc[t]);
        } else {
          for (int t = 0; t < B; ++t) acc[t] = fma_sf(v, in[t], acc[t]);
        }
      }
      for (int t = 0; t < B; ++t) sum[t] += term.w * acc[t];
    }
    for (int t = 0; t < B; ++t) out[t] = sum[t];
  }
}

template <typename V, typename T, int B>
void psi_rows_w(const Index* row_segs, const PsiSegment* segs,
                const PsiTerm<T>* terms, Index ib, Index ie, T* y) {
  for (Index i = ib; i < ie; ++i) {
    psi_row_w<V, T, B>(segs + row_segs[i], segs + row_segs[i + 1], terms, 0,
                       B, y + i * B);
  }
}

/// Other widths: each row in column tiles of 32, 16, ..., 1. Every output
/// element still reduces through the one chain per segment, so the tiling
/// changes no bit.
template <typename V, typename T>
void psi_rows_any(const Index* row_segs, const PsiSegment* segs,
                  const PsiTerm<T>* terms, Index ib, Index ie, Index b,
                  T* y) {
  for (Index i = ib; i < ie; ++i) {
    const PsiSegment* sb = segs + row_segs[i];
    const PsiSegment* se = segs + row_segs[i + 1];
    T* out = y + i * b;
    Index t0 = 0;
    for (; t0 + 32 <= b; t0 += 32) {
      psi_row_w<V, T, 32>(sb, se, terms, t0, b, out + t0);
    }
    if (b - t0 >= 16) {
      psi_row_w<V, T, 16>(sb, se, terms, t0, b, out + t0);
      t0 += 16;
    }
    if (b - t0 >= 8) {
      psi_row_w<V, T, 8>(sb, se, terms, t0, b, out + t0);
      t0 += 8;
    }
    if (b - t0 >= 4) {
      psi_row_w<V, T, 4>(sb, se, terms, t0, b, out + t0);
      t0 += 4;
    }
    if (b - t0 >= 2) {
      psi_row_w<V, T, 2>(sb, se, terms, t0, b, out + t0);
      t0 += 2;
    }
    if (b - t0 >= 1) psi_row_w<V, T, 1>(sb, se, terms, t0, b, out + t0);
  }
}

template <typename V, typename T>
void psi_rows_dispatch(const Index* row_segs, const PsiSegment* segs,
                       const PsiTerm<T>* terms, Index ib, Index ie, Index b,
                       T* y) {
  switch (b) {
    case 1: psi_rows_w<V, T, 1>(row_segs, segs, terms, ib, ie, y); break;
    case 2: psi_rows_w<V, T, 2>(row_segs, segs, terms, ib, ie, y); break;
    case 4: psi_rows_w<V, T, 4>(row_segs, segs, terms, ib, ie, y); break;
    case 8: psi_rows_w<V, T, 8>(row_segs, segs, terms, ib, ie, y); break;
    case 16: psi_rows_w<V, T, 16>(row_segs, segs, terms, ib, ie, y); break;
    case 32: psi_rows_w<V, T, 32>(row_segs, segs, terms, ib, ie, y); break;
    default: psi_rows_any<V>(row_segs, segs, terms, ib, ie, b, y); break;
  }
}

// --- row-range transpose scatter ---------------------------------------

template <typename V, typename T>
void scatter_impl(const Index* offsets, const Index* cols, const T* values,
                  Index ib, Index ie, Index b, const T* x, T* y) {
  for (Index i = ib; i < ie; ++i) {
    const T* in = x + i * b;
    const Index e0 = offsets[i];
    const Index e1 = offsets[i + 1];
    for (Index e = e0; e < e1; ++e) {
      axpy_panel<V>(y + cols[e] * b, values[e], in, b);
    }
  }
}

// --- fused Taylor step (no contraction: matches the scalar chain) ------

template <typename V, typename T>
void taylor_step_impl(T* next, T* y, T scale, Index lo, Index hi) {
  constexpr Index kL = V::kLanes;
  const V vs = V::broadcast(scale);
  Index i = lo;
  for (; i + kL <= hi; i += kL) {
    const V v = V::mul(V::load(next + i), vs);
    v.store(next + i);
    V::add(V::load(y + i), v).store(y + i);
  }
  for (; i < hi; ++i) {
    const T v = next[i] * scale;
    next[i] = v;
    y[i] += v;
  }
}

// --- sum of squares ----------------------------------------------------

template <typename V>
double sum_sq_impl(const double* x, Index n) {
  constexpr Index kL = V::kLanes;
  V acc0 = V::zero();
  V acc1 = V::zero();
  Index i = 0;
  for (; i + 2 * kL <= n; i += 2 * kL) {
    const V a = V::load(x + i);
    const V b = V::load(x + i + kL);
    acc0 = V::fma(a, a, acc0);
    acc1 = V::fma(b, b, acc1);
  }
  double total = V::add(acc0, acc1).hsum();
  for (; i < n; ++i) total = fma_s(x[i], x[i], total);
  return total;
}

}  // namespace impl

// --- the exported table ------------------------------------------------

inline void k_spmm_rows(const Index* offsets, const Index* cols,
                        const double* values, Index ib, Index ie, Index b,
                        const double* x, double* y) {
  impl::spmm_dispatch<VecD>(offsets, cols, values, ib, ie, b, x, y);
}

inline void k_psi_rows(const Index* row_segs, const PsiSegment* segs,
                       const PsiTerm<double>* terms, Index ib, Index ie,
                       Index b, double* y) {
  impl::psi_rows_dispatch<VecD>(row_segs, segs, terms, ib, ie, b, y);
}

inline void k_gather_panel(const Index* offsets, const Index* rows,
                           const double* values, Index jb, Index je, Index b,
                           const double* x, double* y) {
  impl::gather_dispatch<VecD>(offsets, rows, values, jb, je, b, x, y);
}

inline void k_gather_window(const Index* seg_starts, Index s0, Index s1,
                            Index cols, const Index* rows,
                            const double* values, Index jb, Index je, Index b,
                            const double* x, double* y) {
  switch (b) {
    case 1:
      impl::gather_window_w<VecD, 1>(seg_starts, s0, s1, cols, rows, values,
                                     jb, je, x, y);
      break;
    case 2:
      impl::gather_window_w<VecD, 2>(seg_starts, s0, s1, cols, rows, values,
                                     jb, je, x, y);
      break;
    case 4:
      impl::gather_window_w<VecD, 4>(seg_starts, s0, s1, cols, rows, values,
                                     jb, je, x, y);
      break;
    case 8:
      impl::gather_window_w<VecD, 8>(seg_starts, s0, s1, cols, rows, values,
                                     jb, je, x, y);
      break;
    case 16:
      impl::gather_window_w<VecD, 16>(seg_starts, s0, s1, cols, rows, values,
                                      jb, je, x, y);
      break;
    case 32:
      impl::gather_window_w<VecD, 32>(seg_starts, s0, s1, cols, rows, values,
                                      jb, je, x, y);
      break;
    default:
      impl::gather_window_any<VecD>(seg_starts, s0, s1, cols, rows, values,
                                    jb, je, b, x, y);
      break;
  }
}

inline void k_scatter_rows(const Index* offsets, const Index* cols,
                           const double* values, Index ib, Index ie, Index b,
                           const double* x, double* y) {
  impl::scatter_impl<VecD>(offsets, cols, values, ib, ie, b, x, y);
}

inline void k_taylor_step(double* next, double* y, double scale, Index lo,
                          Index hi) {
  impl::taylor_step_impl<VecD>(next, y, scale, lo, hi);
}

inline double k_sum_sq(const double* x, Index n) {
  return impl::sum_sq_impl<VecD>(x, n);
}

inline void k_spmm_rows_f(const Index* offsets, const Index* cols,
                          const float* values, Index ib, Index ie, Index b,
                          const float* x, float* y) {
  impl::spmm_dispatch<VecF>(offsets, cols, values, ib, ie, b, x, y);
}

inline void k_psi_rows_f(const Index* row_segs, const PsiSegment* segs,
                         const PsiTerm<float>* terms, Index ib, Index ie,
                         Index b, float* y) {
  impl::psi_rows_dispatch<VecF>(row_segs, segs, terms, ib, ie, b, y);
}

inline void k_gather_panel_f(const Index* offsets, const Index* rows,
                             const float* values, Index jb, Index je, Index b,
                             const float* x, float* y) {
  impl::gather_dispatch<VecF>(offsets, rows, values, jb, je, b, x, y);
}

inline void k_scatter_rows_f(const Index* offsets, const Index* cols,
                             const float* values, Index ib, Index ie, Index b,
                             const float* x, float* y) {
  impl::scatter_impl<VecF>(offsets, cols, values, ib, ie, b, x, y);
}

inline void k_taylor_step_f(float* next, float* y, float scale, Index lo,
                            Index hi) {
  impl::taylor_step_impl<VecF>(next, y, scale, lo, hi);
}

inline KernelTable make_kernel_table() {
  KernelTable table;
  table.spmm_rows = &k_spmm_rows;
  table.psi_rows = &k_psi_rows;
  table.gather_panel = &k_gather_panel;
  table.gather_window = &k_gather_window;
  table.scatter_rows = &k_scatter_rows;
  table.taylor_step = &k_taylor_step;
  table.sum_sq = &k_sum_sq;
  table.spmm_rows_f = &k_spmm_rows_f;
  table.psi_rows_f = &k_psi_rows_f;
  table.gather_panel_f = &k_gather_panel_f;
  table.scatter_rows_f = &k_scatter_rows_f;
  table.taylor_step_f = &k_taylor_step_f;
  table.sum_sq_f = &detail::compensated_sum_sq_f;
  table.convert_d2f = &detail::convert_panel_d2f;
  return table;
}

}  // namespace psdp::simd::PSDP_SIMD_NS
