#include "sparse/csr.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>

#include "par/cost_meter.hpp"
#include "par/parallel.hpp"
#include "simd/simd.hpp"

namespace psdp::sparse {

namespace {
/// Work-gated grain (par::work_grain) of a sweep over `outputs` rows of b
/// entries each -- the SpMM's rows, the gathers' columns: the nonzeros cost
/// b multiply-adds each and every output row b stores, which dominate on
/// the very sparse factors where most output rows hold no nonzero.
Index output_grain(Index nnz, Index outputs, Index b) {
  return par::work_grain(outputs, static_cast<Real>(b * (nnz + outputs)));
}
}  // namespace

Csr Csr::from_triplets(Index rows, Index cols, std::vector<Triplet> triplets) {
  PSDP_CHECK(rows >= 0 && cols >= 0, "csr: dimensions must be non-negative");
  for (const Triplet& t : triplets) {
    PSDP_CHECK(t.row >= 0 && t.row < rows && t.col >= 0 && t.col < cols,
               str("csr: triplet (", t.row, ",", t.col, ") out of range"));
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });

  Csr m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.offsets_.assign(static_cast<std::size_t>(rows) + 1, 0);
  m.columns_.reserve(triplets.size());
  m.values_.reserve(triplets.size());

  std::size_t i = 0;
  for (Index r = 0; r < rows; ++r) {
    m.offsets_[static_cast<std::size_t>(r)] = static_cast<Index>(m.values_.size());
    while (i < triplets.size() && triplets[i].row == r) {
      const Index c = triplets[i].col;
      Real v = 0;
      while (i < triplets.size() && triplets[i].row == r && triplets[i].col == c) {
        v += triplets[i].value;
        ++i;
      }
      if (v != 0) {
        m.columns_.push_back(c);
        m.values_.push_back(v);
      }
    }
  }
  m.offsets_[static_cast<std::size_t>(rows)] = static_cast<Index>(m.values_.size());
  return m;
}

Csr Csr::from_parts(Index rows, Index cols, std::vector<Index> offsets,
                    std::vector<Index> columns, std::vector<Real> values) {
  PSDP_CHECK(rows >= 0 && cols >= 0, "csr: dimensions must be non-negative");
  PSDP_CHECK(static_cast<Index>(offsets.size()) == rows + 1,
             str("csr: offsets must have rows+1 entries, got ", offsets.size(),
                 " for ", rows, " rows"));
  PSDP_CHECK(columns.size() == values.size(),
             "csr: column/value arrays must be parallel");
  PSDP_CHECK(offsets[0] == 0, "csr: offsets must start at 0");
  PSDP_CHECK(offsets[static_cast<std::size_t>(rows)] ==
                 static_cast<Index>(columns.size()),
             str("csr: offsets end at ", offsets[static_cast<std::size_t>(rows)],
                 ", expected nnz ", columns.size()));
  for (Index r = 0; r < rows; ++r) {
    const Index b = offsets[static_cast<std::size_t>(r)];
    const Index e = offsets[static_cast<std::size_t>(r) + 1];
    PSDP_CHECK(b <= e, str("csr: offsets decrease at row ", r));
    for (Index k = b; k < e; ++k) {
      const Index c = columns[static_cast<std::size_t>(k)];
      PSDP_CHECK(c >= 0 && c < cols,
                 str("csr: column ", c, " out of range in row ", r));
      PSDP_CHECK(k == b || columns[static_cast<std::size_t>(k) - 1] < c,
                 str("csr: columns not strictly ascending in row ", r));
      PSDP_CHECK(std::isfinite(values[static_cast<std::size_t>(k)]),
                 str("csr: non-finite value in row ", r));
    }
  }
  Csr m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.offsets_ = std::move(offsets);
  m.columns_ = std::move(columns);
  m.values_ = std::move(values);
  return m;
}

Csr Csr::from_dense(const Matrix& dense, Real drop_tol) {
  std::vector<Triplet> triplets;
  for (Index i = 0; i < dense.rows(); ++i) {
    for (Index j = 0; j < dense.cols(); ++j) {
      if (std::abs(dense(i, j)) > drop_tol) {
        triplets.push_back({i, j, dense(i, j)});
      }
    }
  }
  return from_triplets(dense.rows(), dense.cols(), std::move(triplets));
}

Csr Csr::identity(Index n) {
  std::vector<Triplet> triplets;
  triplets.reserve(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) triplets.push_back({i, i, 1});
  return from_triplets(n, n, std::move(triplets));
}

std::span<const Index> Csr::row_cols(Index i) const {
  PSDP_ASSERT(i >= 0 && i < rows_);
  const auto b = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(i)]);
  const auto e = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(i) + 1]);
  return {columns_.data() + b, e - b};
}

std::span<const Real> Csr::row_vals(Index i) const {
  PSDP_ASSERT(i >= 0 && i < rows_);
  const auto b = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(i)]);
  const auto e = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(i) + 1]);
  return {values_.data() + b, e - b};
}

void Csr::apply(const Vector& x, Vector& y) const {
  PSDP_CHECK(x.size() == cols_, "csr apply: dimension mismatch");
  if (y.size() != rows_) y = Vector(rows_);
  // The width-1 SpMM through the dispatch seam: one row-range kernel serves
  // apply() and apply_block() alike, so the "SpMM column t == matvec"
  // bitwise guarantee holds under every backend by construction.
  const simd::KernelTable& kt = simd::active_kernels();
  par::parallel_for_chunked(0, rows_, [&](Index ib, Index ie) {
    kt.spmm_rows(offsets_.data(), columns_.data(), values_.data(), ib, ie, 1,
                 x.data(), y.data());
  }, output_grain(nnz(), rows_, 1));
  par::CostMeter::add_work(static_cast<std::uint64_t>(2 * nnz()));
  par::CostMeter::add_depth(par::reduction_depth(cols_));
}

Vector Csr::apply(const Vector& x) const {
  Vector y(rows_);
  apply(x, y);
  return y;
}

namespace {
/// Process-wide count of actual (non-idempotent) transpose-index builds;
/// the serve layer's cache-reuse assertions read it (see csr.hpp).
std::atomic<std::uint64_t> g_transpose_index_builds{0};
}  // namespace

std::uint64_t transpose_index_build_count() {
  return g_transpose_index_builds.load(std::memory_order_relaxed);
}

void Csr::build_transpose_index(const TransposeIndexOptions& options) {
  if (t_built_) return;
  g_transpose_index_builds.fetch_add(1, std::memory_order_relaxed);
  t_offsets_.assign(static_cast<std::size_t>(cols_) + 1, 0);
  t_rows_.resize(values_.size());
  t_values_.resize(values_.size());
  // Counting sort by column; scanning rows in order makes the rows within
  // each column ascending, which is what pins the gather's accumulation
  // order to the row scatter's (bitwise agreement).
  for (const Index c : columns_) ++t_offsets_[static_cast<std::size_t>(c) + 1];
  for (Index j = 0; j < cols_; ++j) {
    t_offsets_[static_cast<std::size_t>(j) + 1] +=
        t_offsets_[static_cast<std::size_t>(j)];
  }
  std::vector<Index> cursor(t_offsets_.begin(), t_offsets_.end() - 1);
  for (Index i = 0; i < rows_; ++i) {
    const auto cols = row_cols(i);
    const auto vals = row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const auto slot =
          static_cast<std::size_t>(cursor[static_cast<std::size_t>(cols[k])]++);
      t_rows_[slot] = i;
      t_values_[slot] = vals[k];
    }
  }
  t_built_ = true;

  // Segment grid: per-column offsets of each segment_rows-row window.
  // Skipped when a single segment would cover the matrix (the grid would
  // be the plain gather) or when the offset table would outweigh the data
  // it indexes (wide matrices: many columns, few windows' worth of rows).
  if (options.segment_rows > 0 && rows_ > options.segment_rows && cols_ > 0) {
    const Index num_segs =
        (rows_ + options.segment_rows - 1) / options.segment_rows;
    const Real grid_cost = static_cast<Real>((num_segs + 1) * cols_);
    if (grid_cost <=
        options.max_segment_index_ratio * static_cast<Real>(nnz() + 1)) {
      t_segment_rows_ = options.segment_rows;
      t_window_bytes_ = std::max<Index>(1, options.window_bytes);
      t_seg_starts_.assign(
          static_cast<std::size_t>((num_segs + 1) * cols_), 0);
      for (Index j = 0; j < cols_; ++j) {
        auto e = static_cast<std::size_t>(t_offsets_[static_cast<std::size_t>(j)]);
        const auto e_end =
            static_cast<std::size_t>(t_offsets_[static_cast<std::size_t>(j) + 1]);
        for (Index s = 0; s <= num_segs; ++s) {
          const Index row_lo = s * t_segment_rows_;
          while (e < e_end && t_rows_[e] < row_lo) ++e;
          t_seg_starts_[static_cast<std::size_t>(s * cols_ + j)] =
              static_cast<Index>(e);
        }
      }
    }
  }
}

void Csr::apply_transpose(const Vector& x, Vector& y) const {
  PSDP_CHECK(x.size() == rows_, "csr apply_transpose: dimension mismatch");
  if (y.size() != cols_) y = Vector(cols_);
  if (t_built_) {
    // Transpose-index gather through the dispatch seam (width 1): one pass
    // over the nonzeros, each output reduced serially in row order
    // (thread-count independent).
    const simd::KernelTable& kt = simd::active_kernels();
    par::parallel_for_chunked(0, cols_, [&](Index jb, Index je) {
      kt.gather_panel(t_offsets_.data(), t_rows_.data(), t_values_.data(),
                      jb, je, 1, x.data(), y.data());
    }, output_grain(nnz(), cols_, 1));
    par::CostMeter::add_work(static_cast<std::uint64_t>(2 * nnz()));
    par::CostMeter::add_depth(par::reduction_depth(rows_));
    return;
  }
  y.fill(0);
  // Serial scatter per thread would race; with the moderate sizes used here
  // a row sweep with owned output blocks keeps determinism. Each chunk
  // scans every row, so under the column gate this fans out only once the
  // matrix carries several chunks' worth of nonzeros.
  par::parallel_for_chunked(0, cols_, [&](Index jb, Index je) {
    for (Index i = 0; i < rows_; ++i) {
      const auto cols = row_cols(i);
      const auto vals = row_vals(i);
      const Real xi = x[i];
      if (xi == 0) continue;
      for (std::size_t k = 0; k < cols.size(); ++k) {
        const Index j = cols[k];
        if (j >= jb && j < je) y[j] += xi * vals[k];
      }
    }
  }, output_grain(nnz(), cols_, 1));
  par::CostMeter::add_work(static_cast<std::uint64_t>(2 * nnz()));
  par::CostMeter::add_depth(par::reduction_depth(rows_));
}

Vector Csr::apply_transpose(const Vector& x) const {
  Vector y(cols_);
  apply_transpose(x, y);
  return y;
}

void Csr::apply_block(const Matrix& x, Matrix& y) const {
  PSDP_CHECK(x.rows() == cols_, "csr apply_block: dimension mismatch");
  const Index b = x.cols();
  PSDP_CHECK(b >= 1, "csr apply_block: panel must have at least one column");
  y.reshape(rows_, b);
  // Row-parallel SpMM through the dispatch seam: one pass over the nonzeros
  // serves all b columns.
  const simd::KernelTable& kt = simd::active_kernels();
  par::parallel_for_chunked(0, rows_, [&](Index ib, Index ie) {
    kt.spmm_rows(offsets_.data(), columns_.data(), values_.data(), ib, ie, b,
                 x.data(), y.data());
  }, output_grain(nnz(), rows_, b));
  par::CostMeter::add_work(static_cast<std::uint64_t>(2 * nnz() * b));
  par::CostMeter::add_depth(par::reduction_depth(cols_));
}

void Csr::apply_transpose_block(const Matrix& x, Matrix& y) const {
  if (has_segment_index()) {
    apply_transpose_block_segmented(x, y);
  } else if (t_built_) {
    apply_transpose_block_indexed(x, y);
  } else {
    PSDP_CHECK(x.rows() == rows_,
               "csr apply_transpose_block: dimension mismatch");
    const Index b = x.cols();
    PSDP_CHECK(b >= 1, "csr apply_transpose_block: panel must have at least "
                       "one column");
    // No index: one serial scatter over every row -- each output folds its
    // column's entries in ascending row order, the gather's chain, so the
    // two agree bitwise at any thread count.
    y.reshape(cols_, b);
    y.fill(0);
    simd::active_kernels().scatter_rows(offsets_.data(), columns_.data(),
                                        values_.data(), 0, rows_, b, x.data(),
                                        y.data());
    par::CostMeter::add_work(static_cast<std::uint64_t>(2 * nnz() * b));
    par::CostMeter::add_depth(par::reduction_depth(rows_));
  }
}

void Csr::apply_transpose_block(const Matrix& x, Matrix& y,
                                std::vector<Real>& /*partial*/) const {
  apply_transpose_block(x, y);
}

KernelPlan Csr::kernel_plan() const {
  if (!t_built_) return KernelPlan(TransposeKernel::kScatter);
  return KernelPlan(has_segment_index() ? TransposeKernel::kSegmented
                                        : TransposeKernel::kGather);
}

const char* kernel_name(TransposeKernel kernel) {
  switch (kernel) {
    case TransposeKernel::kGather:
      return "gather";
    case TransposeKernel::kSegmented:
      return "segmented";
    case TransposeKernel::kScatter:
      return "scatter";
  }
  return "unknown";
}

void clear_transpose_plan_cache() {}

void Csr::apply_transpose_block_indexed(const Matrix& x, Matrix& y) const {
  PSDP_CHECK(t_built_,
             "csr apply_transpose_block_indexed: call build_transpose_index()");
  PSDP_CHECK(x.rows() == rows_, "csr apply_transpose_block: dimension mismatch");
  const Index b = x.cols();
  PSDP_CHECK(b >= 1,
             "csr apply_transpose_block: panel must have at least one column");
  y.reshape(cols_, b);
  // Column chunks: the per-column entry spans are contiguous in the index,
  // so each chunk is one streaming pass.
  // Width dispatch (the compile-time-B register kernels for the common
  // widths) now lives inside the backend's gather_panel.
  const simd::KernelTable& kt = simd::active_kernels();
  par::parallel_for_chunked(0, cols_, [&](Index jb, Index je) {
    kt.gather_panel(t_offsets_.data(), t_rows_.data(), t_values_.data(), jb,
                    je, b, x.data(), y.data());
  }, output_grain(nnz(), cols_, b));
  par::CostMeter::add_work(static_cast<std::uint64_t>(2 * nnz() * b));
  par::CostMeter::add_depth(par::reduction_depth(rows_));
}

void Csr::apply_transpose_block_segmented(const Matrix& x, Matrix& y) const {
  PSDP_CHECK(has_segment_index(),
             "csr apply_transpose_block_segmented: no segment grid (see "
             "TransposeIndexOptions::segment_rows)");
  PSDP_CHECK(x.rows() == rows_, "csr apply_transpose_block: dimension mismatch");
  const Index b = x.cols();
  PSDP_CHECK(b >= 1,
             "csr apply_transpose_block: panel must have at least one column");
  const Index num_segs = (rows_ + t_segment_rows_ - 1) / t_segment_rows_;
  // Window = as many base segments as keep the x-slice near the build-time
  // window_bytes target (all threads share a window, so it is sized for
  // the shared cache level). Any grouping gives the same bits (ascending-
  // row reduction per output either way), so this is a pure locality knob
  // -- and a single window covering everything *is* the plain gather,
  // minus this function's windowing overhead, so delegate.
  const Index group = std::clamp<Index>(
      t_window_bytes_ / std::max<Index>(1, t_segment_rows_ * b * 8), 1,
      num_segs);
  if (group >= num_segs) {
    apply_transpose_block_indexed(x, y);
    return;
  }
  y.reshape(cols_, b);
  y.fill(0);
  const Index windows = (num_segs + group - 1) / group;
  // Per-window column grain: a window holds about 1/windows of the
  // nonzeros, and every window folds into every output column.
  const Index grain = output_grain(nnz() / windows, cols_, b);
  // Windows sweep sequentially with the column-parallel fold inside each
  // one: every thread works the same cache-resident x-slice, and each
  // output is still one ascending-row reduction across the windows.
  const simd::KernelTable& kt = simd::active_kernels();
  for (Index s0 = 0; s0 < num_segs; s0 += group) {
    const Index s1 = std::min(num_segs, s0 + group);
    par::parallel_for_chunked(0, cols_, [&](Index jb, Index je) {
      kt.gather_window(t_seg_starts_.data(), s0, s1, cols_, t_rows_.data(),
                       t_values_.data(), jb, je, b, x.data(), y.data());
    }, grain);
  }
  par::CostMeter::add_work(static_cast<std::uint64_t>(2 * nnz() * b));
  par::CostMeter::add_depth(static_cast<std::uint64_t>(windows) *
                            par::reduction_depth(cols_));
}

void Csr::fill_float_values(std::vector<float>& values_f,
                            std::vector<float>& t_values_f) const {
  values_f.resize(values_.size());
  for (std::size_t i = 0; i < values_.size(); ++i) {
    values_f[i] = static_cast<float>(values_[i]);
  }
  if (t_built_) {
    t_values_f.resize(t_values_.size());
    for (std::size_t i = 0; i < t_values_.size(); ++i) {
      t_values_f[i] = static_cast<float>(t_values_[i]);
    }
  } else {
    t_values_f.clear();
  }
}

void Csr::apply_block_f(const MatrixF& x, MatrixF& y,
                        std::span<const float> values_f) const {
  PSDP_CHECK(x.rows() == cols_, "csr apply_block_f: dimension mismatch");
  PSDP_CHECK(static_cast<Index>(values_f.size()) == nnz(),
             "csr apply_block_f: float value copy out of date");
  const Index b = x.cols();
  PSDP_CHECK(b >= 1, "csr apply_block_f: panel must have at least one column");
  y.reshape(rows_, b);
  const simd::KernelTable& kt = simd::active_kernels();
  par::parallel_for_chunked(0, rows_, [&](Index ib, Index ie) {
    kt.spmm_rows_f(offsets_.data(), columns_.data(), values_f.data(), ib, ie,
                   b, x.data(), y.data());
  }, output_grain(nnz(), rows_, b));
  par::CostMeter::add_work(static_cast<std::uint64_t>(2 * nnz() * b));
  par::CostMeter::add_depth(par::reduction_depth(cols_));
}

void Csr::apply_transpose_block_f(const MatrixF& x, MatrixF& y,
                                  std::span<const float> t_values_f) const {
  PSDP_CHECK(x.rows() == rows_,
             "csr apply_transpose_block_f: dimension mismatch");
  const Index b = x.cols();
  PSDP_CHECK(b >= 1,
             "csr apply_transpose_block_f: panel must have at least one "
             "column");
  PSDP_CHECK(t_built_,
             "csr apply_transpose_block_f: needs the transpose index");
  PSDP_CHECK(static_cast<Index>(t_values_f.size()) == nnz(),
             "csr apply_transpose_block_f: float CSC copy out of date");
  y.reshape(cols_, b);
  const simd::KernelTable& kt = simd::active_kernels();
  par::parallel_for_chunked(0, cols_, [&](Index jb, Index je) {
    kt.gather_panel_f(t_offsets_.data(), t_rows_.data(), t_values_f.data(),
                      jb, je, b, x.data(), y.data());
  }, output_grain(nnz(), cols_, b));
  par::CostMeter::add_work(static_cast<std::uint64_t>(2 * nnz() * b));
  par::CostMeter::add_depth(par::reduction_depth(rows_));
}

Csr& Csr::scale(Real s) {
  for (Real& v : values_) v *= s;
  for (Real& v : t_values_) v *= s;  // keep the cached CSC view in sync
  return *this;
}

Matrix Csr::to_dense() const {
  Matrix dense(rows_, cols_);
  for (Index i = 0; i < rows_; ++i) {
    const auto cols = row_cols(i);
    const auto vals = row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) dense(i, cols[k]) = vals[k];
  }
  return dense;
}

Real Csr::frobenius_norm2() const {
  Real acc = 0;
  for (Real v : values_) acc += v * v;
  return acc;
}

Real Csr::trace() const {
  PSDP_CHECK(rows_ == cols_, "csr trace: matrix must be square");
  Real acc = 0;
  for (Index i = 0; i < rows_; ++i) {
    const auto cols = row_cols(i);
    const auto vals = row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (cols[k] == i) acc += vals[k];
    }
  }
  return acc;
}

Csr add_scaled(const Csr& a, const Csr& b, Real s) {
  PSDP_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
             "csr add_scaled: dimension mismatch");
  std::vector<Triplet> triplets;
  triplets.reserve(static_cast<std::size_t>(a.nnz() + b.nnz()));
  for (Index i = 0; i < a.rows(); ++i) {
    const auto ac = a.row_cols(i);
    const auto av = a.row_vals(i);
    for (std::size_t k = 0; k < ac.size(); ++k) triplets.push_back({i, ac[k], av[k]});
    const auto bc = b.row_cols(i);
    const auto bv = b.row_vals(i);
    for (std::size_t k = 0; k < bc.size(); ++k) {
      triplets.push_back({i, bc[k], s * bv[k]});
    }
  }
  return Csr::from_triplets(a.rows(), a.cols(), std::move(triplets));
}

}  // namespace psdp::sparse
