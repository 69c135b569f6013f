#include "linalg/taylor.hpp"

#include <cmath>
#include <utility>

#include "par/cost_meter.hpp"
#include "par/parallel.hpp"
#include "simd/simd.hpp"

namespace psdp::linalg {

Index taylor_exp_degree(Real kappa, Real eps) {
  PSDP_CHECK(kappa >= 0, "taylor_exp_degree: kappa must be non-negative");
  PSDP_CHECK(eps > 0 && eps < 1, "taylor_exp_degree: eps must lie in (0,1)");
  const Real e2 = std::exp(Real{2});
  const Real k = std::max(e2 * kappa, std::log(2 / eps));
  return std::max<Index>(1, static_cast<Index>(std::ceil(k)));
}

void apply_exp_taylor(const SymmetricOp& op, Index degree, const Vector& x,
                      Vector& y) {
  PSDP_CHECK(degree >= 1, "apply_exp_taylor: degree must be >= 1");
  const Index n = x.size();
  // term_j = B^j x / j!, accumulated into y.
  Vector term = x;
  y = x;
  Vector next(n);
  for (Index j = 1; j < degree; ++j) {
    op(term, next);
    next.scale(Real{1} / static_cast<Real>(j));
    std::swap(term, next);
    y.add_scaled(term, 1);
  }
  // Vector arithmetic of the recurrence (the op charges its own matvecs).
  // Work only: this function runs inside worker threads on the reference
  // sketch path, and depth is charged by the driving thread (the cost_meter
  // convention) -- bigDotExp charges the chain's critical path once.
  par::CostMeter::add_work(static_cast<std::uint64_t>(3 * n * (degree - 1)));
}

void apply_exp_taylor_block(const BlockOp& op, Index degree, const Matrix& x,
                            Matrix& y, TaylorBlockWorkspace& workspace,
                            Real op_scale) {
  PSDP_CHECK(degree >= 1, "apply_exp_taylor_block: degree must be >= 1");
  PSDP_CHECK(x.cols() >= 1, "apply_exp_taylor_block: panel must be non-empty");
  const Index n = x.rows();
  const Index b = x.cols();
  // term_j = B^j X / j!, accumulated into Y; `workspace.term` and
  // `workspace.next` are the only storage touched and are recycled across
  // calls -- the loop itself allocates nothing once they have X's shape
  // (capacity-preserving reshape, so a narrower last panel does not force
  // the next call to reallocate).
  workspace.term = x;
  y = x;
  workspace.next.reshape(n, b);
  // The scale-and-accumulate tail of each step runs as one fused parallel
  // sweep through the dispatch seam (taylor_step: v = next*s; next = v;
  // y += v). The store of v rounds the product before the add in every
  // backend, so this is bitwise identical to the scale(); add_scaled()
  // pair it replaces -- under every ISA. Work-gated on one multiply-add and
  // two stores per entry, so the sweep fans out only on panels of a few
  // chunks' worth of entries.
  const simd::KernelTable& kt = simd::active_kernels();
  const Index step_grain = par::work_grain(n * b, static_cast<Real>(3 * n * b));
  for (Index j = 1; j < degree; ++j) {
    op(workspace.term, workspace.next);
    const Real s = op_scale / static_cast<Real>(j);
    par::parallel_for_chunked(0, n * b, [&](Index lo, Index hi) {
      kt.taylor_step(workspace.next.data(), y.data(), s, lo, hi);
    }, step_grain);
    std::swap(workspace.term, workspace.next);
  }
  par::CostMeter::add_work(
      static_cast<std::uint64_t>(3 * n * b * (degree - 1)));
  par::CostMeter::add_depth(static_cast<std::uint64_t>(degree - 1));
}

void apply_exp_taylor_block_f(const BlockOpF& op, Index degree,
                              const MatrixF& x, MatrixF& y,
                              TaylorBlockWorkspaceF& workspace,
                              float op_scale) {
  PSDP_CHECK(degree >= 1, "apply_exp_taylor_block_f: degree must be >= 1");
  PSDP_CHECK(x.cols() >= 1,
             "apply_exp_taylor_block_f: panel must be non-empty");
  const Index n = x.rows();
  const Index b = x.cols();
  workspace.term = x;
  y = x;
  workspace.next.reshape(n, b);
  const simd::KernelTable& kt = simd::active_kernels();
  const Index step_grain = par::work_grain(n * b, static_cast<Real>(3 * n * b));
  for (Index j = 1; j < degree; ++j) {
    op(workspace.term, workspace.next);
    const float s = op_scale / static_cast<float>(j);
    par::parallel_for_chunked(0, n * b, [&](Index lo, Index hi) {
      kt.taylor_step_f(workspace.next.data(), y.data(), s, lo, hi);
    }, step_grain);
    std::swap(workspace.term, workspace.next);
  }
  par::CostMeter::add_work(
      static_cast<std::uint64_t>(3 * n * b * (degree - 1)));
  par::CostMeter::add_depth(static_cast<std::uint64_t>(degree - 1));
}

void apply_exp_taylor_block(const BlockOp& op, Index degree, const Matrix& x,
                            Matrix& y) {
  TaylorBlockWorkspace workspace;
  apply_exp_taylor_block(op, degree, x, y, workspace);
}

Matrix exp_taylor_matrix(const Matrix& b, Index degree) {
  PSDP_CHECK(b.square(), "exp_taylor_matrix: matrix must be square");
  PSDP_CHECK(degree >= 1, "exp_taylor_matrix: degree must be >= 1");
  const Index n = b.rows();
  Matrix acc = Matrix::identity(n);
  Matrix term = Matrix::identity(n);
  for (Index j = 1; j < degree; ++j) {
    term = gemm(term, b);
    term.scale(Real{1} / static_cast<Real>(j));
    acc.add_scaled(term, 1);
  }
  return acc;
}

}  // namespace psdp::linalg
