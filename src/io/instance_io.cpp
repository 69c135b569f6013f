#include "io/instance_io.hpp"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>

namespace psdp::io {

using core::CoveringProblem;
using core::FactorizedPackingInstance;
using core::PackingInstance;
using linalg::Matrix;
using linalg::Vector;

namespace {

constexpr int kPrecision = 17;

void write_header(std::ostream& out, const char* kind) {
  out << "psdp " << kind << " 1\n";
}

void write_dense_symmetric(std::ostream& out, const Matrix& a) {
  // Count upper-triangle nonzeros first.
  Index nnz = 0;
  for (Index i = 0; i < a.rows(); ++i) {
    for (Index j = i; j < a.cols(); ++j) {
      if (a(i, j) != 0) ++nnz;
    }
  }
  out << nnz << "\n";
  out << std::setprecision(kPrecision);
  for (Index i = 0; i < a.rows(); ++i) {
    for (Index j = i; j < a.cols(); ++j) {
      if (a(i, j) != 0) out << i << " " << j << " " << a(i, j) << "\n";
    }
  }
}

/// Next non-comment, non-blank line.
bool next_line(std::istream& in, std::string& line) {
  while (std::getline(in, line)) {
    const auto pos = line.find_first_not_of(" \t\r");
    if (pos == std::string::npos) continue;
    if (line[pos] == '#') continue;
    return true;
  }
  return false;
}

std::istringstream expect_line(std::istream& in, const char* what) {
  std::string line;
  PSDP_CHECK(next_line(in, line), str("unexpected end of input, expected ", what));
  return std::istringstream(line);
}

void expect_header(std::istream& in, const std::string& kind) {
  auto line = expect_line(in, "header");
  std::string magic, got_kind;
  int version = 0;
  line >> magic >> got_kind >> version;
  PSDP_CHECK(magic == "psdp", "not a psdp instance file");
  PSDP_CHECK(got_kind == kind,
             str("expected kind '", kind, "', found '", got_kind, "'"));
  PSDP_CHECK(version == 1, str("unsupported format version ", version));
}

std::pair<Index, Index> read_size(std::istream& in) {
  auto line = expect_line(in, "size");
  std::string tag;
  Index n = 0, m = 0;
  line >> tag >> n >> m;
  PSDP_CHECK(tag == "size" && n >= 1 && m >= 1, "malformed size record");
  return {n, m};
}

Matrix read_dense_symmetric(std::istream& in, Index m, Index expected_index) {
  auto header = expect_line(in, "constraint");
  std::string tag;
  Index idx = 0, nnz = 0;
  header >> tag >> idx >> nnz;
  PSDP_CHECK(tag == "constraint" && idx == expected_index && nnz >= 0,
             str("malformed constraint record (index ", expected_index, ")"));
  Matrix a(m, m);
  for (Index k = 0; k < nnz; ++k) {
    auto entry = expect_line(in, "matrix entry");
    Index i = 0, j = 0;
    Real v = 0;
    entry >> i >> j >> v;
    PSDP_CHECK(entry && i >= 0 && j >= i && j < m && std::isfinite(v),
               "malformed matrix entry");
    a(i, j) = v;
    a(j, i) = v;
  }
  return a;
}

}  // namespace

void write_packing(std::ostream& out, const PackingInstance& instance) {
  write_header(out, "packing-dense");
  out << "size " << instance.size() << " " << instance.dim() << "\n";
  for (Index i = 0; i < instance.size(); ++i) {
    out << "constraint " << i << " ";
    write_dense_symmetric(out, instance[i]);
  }
}

PackingInstance read_packing(std::istream& in) {
  expect_header(in, "packing-dense");
  const auto [n, m] = read_size(in);
  std::vector<Matrix> constraints;
  constraints.reserve(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) {
    constraints.push_back(read_dense_symmetric(in, m, i));
  }
  return PackingInstance(std::move(constraints));
}

void write_factorized(std::ostream& out,
                      const FactorizedPackingInstance& instance) {
  write_header(out, "packing-factorized");
  out << "size " << instance.size() << " " << instance.dim() << "\n";
  out << std::setprecision(kPrecision);
  for (Index i = 0; i < instance.size(); ++i) {
    const sparse::Csr& q = instance[i].q();
    out << "constraint " << i << " " << q.cols() << " " << q.nnz() << "\n";
    for (Index r = 0; r < q.rows(); ++r) {
      const auto cols = q.row_cols(r);
      const auto vals = q.row_vals(r);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        out << r << " " << cols[k] << " " << vals[k] << "\n";
      }
    }
  }
}

FactorizedPackingInstance read_factorized(std::istream& in, Index shards) {
  expect_header(in, "packing-factorized");
  const auto [n, m] = read_size(in);
  std::vector<sparse::FactorizedPsd> items;
  items.reserve(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) {
    auto header = expect_line(in, "constraint");
    std::string tag;
    Index idx = 0, cols = 0, nnz = 0;
    header >> tag >> idx >> cols >> nnz;
    PSDP_CHECK(tag == "constraint" && idx == i && cols >= 1 && nnz >= 0,
               str("malformed factorized constraint record (index ", i, ")"));
    std::vector<sparse::Triplet> triplets;
    triplets.reserve(static_cast<std::size_t>(nnz));
    for (Index k = 0; k < nnz; ++k) {
      auto entry = expect_line(in, "factor entry");
      Index r = 0, c = 0;
      Real v = 0;
      entry >> r >> c >> v;
      PSDP_CHECK(entry && r >= 0 && r < m && c >= 0 && c < cols &&
                     std::isfinite(v),
                 "malformed factor entry");
      triplets.push_back({r, c, v});
    }
    items.emplace_back(sparse::Csr::from_triplets(m, cols, std::move(triplets)));
  }
  if (shards > 1) {
    return FactorizedPackingInstance(sparse::FactorizedSet(std::move(items)),
                                     shards);
  }
  return FactorizedPackingInstance(sparse::FactorizedSet(std::move(items)));
}

void write_covering(std::ostream& out, const CoveringProblem& problem) {
  write_header(out, "covering");
  out << "size " << problem.size() << " " << problem.dim() << "\n";
  out << "objective ";
  write_dense_symmetric(out, problem.objective);
  out << std::setprecision(kPrecision) << "rhs";
  for (Index i = 0; i < problem.rhs.size(); ++i) out << " " << problem.rhs[i];
  out << "\n";
  for (Index i = 0; i < problem.size(); ++i) {
    out << "constraint " << i << " ";
    write_dense_symmetric(out, problem.constraints[static_cast<std::size_t>(i)]);
  }
}

CoveringProblem read_covering(std::istream& in) {
  expect_header(in, "covering");
  const auto [n, m] = read_size(in);
  CoveringProblem problem;
  {
    auto header = expect_line(in, "objective");
    std::string tag;
    Index nnz = 0;
    header >> tag >> nnz;
    PSDP_CHECK(tag == "objective" && nnz >= 0, "malformed objective record");
    problem.objective = Matrix(m, m);
    for (Index k = 0; k < nnz; ++k) {
      auto entry = expect_line(in, "objective entry");
      Index i = 0, j = 0;
      Real v = 0;
      entry >> i >> j >> v;
      PSDP_CHECK(entry && i >= 0 && j >= i && j < m && std::isfinite(v),
                 "malformed objective entry");
      problem.objective(i, j) = v;
      problem.objective(j, i) = v;
    }
  }
  {
    auto line = expect_line(in, "rhs");
    std::string tag;
    line >> tag;
    PSDP_CHECK(tag == "rhs", "malformed rhs record");
    problem.rhs = Vector(n);
    for (Index i = 0; i < n; ++i) {
      PSDP_CHECK(static_cast<bool>(line >> problem.rhs[i]),
                 "rhs record too short");
    }
  }
  for (Index i = 0; i < n; ++i) {
    problem.constraints.push_back(read_dense_symmetric(in, m, i));
  }
  return problem;
}

namespace {

template <typename Writer, typename T>
void save(const std::string& path, const T& value, Writer writer) {
  std::ofstream out(path);
  PSDP_CHECK(out.good(), str("cannot open '", path, "' for writing"));
  writer(out, value);
  PSDP_CHECK(out.good(), str("write to '", path, "' failed"));
}

template <typename Reader>
auto load(const std::string& path, Reader reader) {
  std::ifstream in(path);
  PSDP_CHECK(in.good(), str("cannot open '", path, "' for reading"));
  return reader(in);
}

}  // namespace

void write_lp(std::ostream& out, const core::PackingLp& lp) {
  write_header(out, "packing-lp");
  const Matrix& p = lp.matrix();
  Index nnz = 0;
  for (Index j = 0; j < p.rows(); ++j) {
    for (Index i = 0; i < p.cols(); ++i) {
      if (p(j, i) != 0) ++nnz;
    }
  }
  // size records rows (constraints) then cols (variables).
  out << "size " << p.rows() << " " << p.cols() << "\n";
  out << "matrix " << nnz << "\n" << std::setprecision(kPrecision);
  for (Index j = 0; j < p.rows(); ++j) {
    for (Index i = 0; i < p.cols(); ++i) {
      if (p(j, i) != 0) out << j << " " << i << " " << p(j, i) << "\n";
    }
  }
}

core::PackingLp read_lp(std::istream& in) {
  expect_header(in, "packing-lp");
  const auto [l, n] = read_size(in);
  auto header = expect_line(in, "matrix");
  std::string tag;
  Index nnz = 0;
  header >> tag >> nnz;
  PSDP_CHECK(tag == "matrix" && nnz >= 0, "malformed matrix record");
  Matrix p(l, n);
  for (Index k = 0; k < nnz; ++k) {
    auto entry = expect_line(in, "lp entry");
    Index j = 0, i = 0;
    Real v = 0;
    entry >> j >> i >> v;
    PSDP_CHECK(entry && j >= 0 && j < l && i >= 0 && i < n && v >= 0 &&
                   std::isfinite(v),
               "malformed lp entry");
    p(j, i) = v;
  }
  return core::PackingLp(std::move(p));
}

void save_packing(const std::string& path, const PackingInstance& instance) {
  save(path, instance, [](std::ostream& o, const PackingInstance& v) {
    write_packing(o, v);
  });
}

PackingInstance load_packing(const std::string& path) {
  return load(path, [](std::istream& i) { return read_packing(i); });
}

void save_factorized(const std::string& path,
                     const FactorizedPackingInstance& instance) {
  save(path, instance,
       [](std::ostream& o, const FactorizedPackingInstance& v) {
         write_factorized(o, v);
       });
}

FactorizedPackingInstance load_factorized(const std::string& path,
                                          Index shards) {
  return load(path, [shards](std::istream& i) {
    return read_factorized(i, shards);
  });
}

void save_lp(const std::string& path, const core::PackingLp& lp) {
  save(path, lp,
       [](std::ostream& o, const core::PackingLp& v) { write_lp(o, v); });
}

core::PackingLp load_lp(const std::string& path) {
  return load(path, [](std::istream& i) { return read_lp(i); });
}

void save_covering(const std::string& path, const CoveringProblem& problem) {
  save(path, problem, [](std::ostream& o, const CoveringProblem& v) {
    write_covering(o, v);
  });
}

CoveringProblem load_covering(const std::string& path) {
  return load(path, [](std::istream& i) { return read_covering(i); });
}

}  // namespace psdp::io
