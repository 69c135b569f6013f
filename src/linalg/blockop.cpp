#include "linalg/blockop.hpp"

#include <chrono>
#include <limits>
#include <memory>

namespace psdp::linalg {

BlockOp block_op_from_symmetric(SymmetricOp op, Index dim) {
  // The scratch vectors are shared across calls (a BlockOp is applied from
  // one driving thread); the operator itself may still parallelize inside.
  auto x_col = std::make_shared<Vector>(dim);
  auto y_col = std::make_shared<Vector>(dim);
  return [op = std::move(op), dim, x_col, y_col](const Matrix& x, Matrix& y) {
    PSDP_CHECK(x.rows() == dim, "block op: panel dimension mismatch");
    if (y.rows() != x.rows() || y.cols() != x.cols()) {
      y = Matrix(x.rows(), x.cols());
    }
    for (Index t = 0; t < x.cols(); ++t) {
      panel_column(x, t, *x_col);
      op(*x_col, *y_col);
      set_panel_column(y, t, *y_col);
    }
  };
}

void panel_column(const Matrix& panel, Index col, Vector& out) {
  PSDP_CHECK(col >= 0 && col < panel.cols(), "panel_column: column out of range");
  if (out.size() != panel.rows()) out = Vector(panel.rows());
  const Index b = panel.cols();
  const Real* data = panel.data() + col;
  for (Index i = 0; i < panel.rows(); ++i) out[i] = data[i * b];
}

double time_block_kernel(int reps, const std::function<void()>& body) {
  PSDP_CHECK(reps >= 1, "time_block_kernel: need at least one repetition");
  using Clock = std::chrono::steady_clock;
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    const Clock::time_point start = Clock::now();
    body();
    best = std::min(
        best, std::chrono::duration<double>(Clock::now() - start).count());
  }
  return best;
}

void set_panel_column(Matrix& panel, Index col, const Vector& in) {
  PSDP_CHECK(col >= 0 && col < panel.cols(),
             "set_panel_column: column out of range");
  PSDP_CHECK(in.size() == panel.rows(), "set_panel_column: length mismatch");
  const Index b = panel.cols();
  Real* data = panel.data() + col;
  for (Index i = 0; i < panel.rows(); ++i) data[i * b] = in[i];
}

}  // namespace psdp::linalg
