#include "rand/jl.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <optional>

#include "par/cost_meter.hpp"
#include "par/parallel.hpp"
#include "rand/rng.hpp"

namespace psdp::rand {

Index jl_rows(Index m, Real eps, Real delta) {
  PSDP_CHECK(m >= 1, "jl_rows: dimension must be positive");
  PSDP_CHECK(eps > 0 && eps < 1, "jl_rows: eps must lie in (0,1)");
  PSDP_CHECK(delta > 0 && delta < 1, "jl_rows: delta must lie in (0,1)");
  const Real r = 8.0 * (std::log(static_cast<Real>(m)) + std::log(1.0 / delta)) /
                 (eps * eps);
  return std::max<Index>(1, static_cast<Index>(std::ceil(r)));
}

namespace {

/// Entries one draw signs, and streams fill_block advances together.
constexpr Index kSignsPerDraw = 64;

/// The bits of +1/sqrt(rows); an entry ORs its sign into bit 63.
std::uint64_t scale_bits(Index rows) {
  return std::bit_cast<std::uint64_t>(1.0 /
                                      std::sqrt(static_cast<Real>(rows)));
}

/// The entry bit `bit` of `draw` signs: +scale when clear, -scale when set.
inline Real signed_entry(std::uint64_t scale, std::uint64_t draw, Index bit) {
  return std::bit_cast<Real>(scale | (((draw >> bit) & 1) << 63));
}

}  // namespace

SignSketch::SignSketch(Index rows, Index cols, std::uint64_t seed)
    : rows_(rows), cols_(cols), seed_(seed) {
  PSDP_CHECK(rows >= 1 && cols >= 1, "sketch dimensions must be positive");
  data_.resize(static_cast<std::size_t>(rows * cols));
  const std::uint64_t scale = scale_bits(rows);
  // One deterministic stream per row so generation parallelizes.
  par::parallel_for(0, rows, [&](Index j) {
    Rng rng(stream_seed(seed, static_cast<std::uint64_t>(j)));
    Real* out = data_.data() + j * cols;
    for (Index i0 = 0; i0 < cols; i0 += kSignsPerDraw) {
      const std::uint64_t draw = rng.next_u64();
      const Index width = std::min(kSignsPerDraw, cols - i0);
      for (Index bit = 0; bit < width; ++bit) {
        out[i0 + bit] = signed_entry(scale, draw, bit);
      }
    }
  }, par::work_grain(rows, static_cast<Real>(rows * cols)));
  // Same generation charge as fill_block, so the reference and blocked
  // sketch paths report comparable model work.
  par::CostMeter::add_work(static_cast<std::uint64_t>(rows * cols));
}

SignSketch SignSketch::deferred(Index rows, Index cols, std::uint64_t seed) {
  PSDP_CHECK(rows >= 1 && cols >= 1, "sketch dimensions must be positive");
  SignSketch sketch;
  sketch.rows_ = rows;
  sketch.cols_ = cols;
  sketch.seed_ = seed;
  return sketch;
}

std::span<const Real> SignSketch::row(Index j) const {
  PSDP_CHECK(j >= 0 && j < rows_, "sketch row out of range");
  PSDP_CHECK(!data_.empty(), "sketch row: sketch is deferred (use fill_block)");
  return {data_.data() + j * cols_, static_cast<std::size_t>(cols_)};
}

void SignSketch::fill_block(Index first, Index count,
                            linalg::Matrix& panel) const {
  PSDP_CHECK(first >= 0 && count >= 1 && first + count <= rows_,
             "fill_block: row range out of bounds");
  panel.reshape(cols_, count);  // capacity-preserving: no steady-state alloc
  const std::uint64_t scale = scale_bits(rows_);
  // Streams t0 .. t0 + c advance together: one draw each signs the next 64
  // panel rows, which are then written in order, c entries a row.
  for (Index t0 = 0; t0 < count; t0 += kSignsPerDraw) {
    const Index c = std::min(kSignsPerDraw, count - t0);
    std::array<std::optional<Rng>, kSignsPerDraw> streams;
    for (Index t = 0; t < c; ++t) {
      streams[static_cast<std::size_t>(t)].emplace(
          stream_seed(seed_, static_cast<std::uint64_t>(first + t0 + t)));
    }
    std::array<std::uint64_t, kSignsPerDraw> draws;
    for (Index i0 = 0; i0 < cols_; i0 += kSignsPerDraw) {
      for (Index t = 0; t < c; ++t) {
        draws[static_cast<std::size_t>(t)] =
            streams[static_cast<std::size_t>(t)]->next_u64();
      }
      const Index width = std::min(kSignsPerDraw, cols_ - i0);
      for (Index bit = 0; bit < width; ++bit) {
        Real* out = panel.data() + (i0 + bit) * count + t0;
        for (Index t = 0; t < c; ++t) {
          out[t] = signed_entry(scale, draws[static_cast<std::size_t>(t)], bit);
        }
      }
    }
  }
  par::CostMeter::add_work(static_cast<std::uint64_t>(count * cols_));
}

void SignSketch::apply(std::span<const Real> x, std::span<Real> y) const {
  PSDP_CHECK(static_cast<Index>(x.size()) == cols_, "apply: x has wrong length");
  PSDP_CHECK(static_cast<Index>(y.size()) == rows_, "apply: y has wrong length");
  PSDP_CHECK(!data_.empty(), "apply: sketch is deferred (use fill_block)");
  par::parallel_for(0, rows_, [&](Index j) {
    const Real* pi = data_.data() + j * cols_;
    Real acc = 0;
    for (Index i = 0; i < cols_; ++i) acc += pi[i] * x[static_cast<std::size_t>(i)];
    y[static_cast<std::size_t>(j)] = acc;
  }, /*grain=*/1);
  par::CostMeter::add_work(static_cast<std::uint64_t>(2 * rows_ * cols_));
  par::CostMeter::add_depth(par::reduction_depth(cols_));
}

Real SignSketch::sketch_norm2(std::span<const Real> x) const {
  std::vector<Real> y(static_cast<std::size_t>(rows_));
  apply(x, y);
  Real acc = 0;
  for (Real v : y) acc += v * v;
  return acc;
}

}  // namespace psdp::rand
