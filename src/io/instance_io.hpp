// Plain-text serialization of problem instances.
//
// A small line-oriented format so experiments are reproducible across runs
// and instances can be shipped to other tools. All three problem kinds are
// supported; matrices are stored as upper-triangle triplets (dense) or as
// factor triplets (factorized). Values round-trip exactly (hex-free, 17
// significant digits).
//
// Grammar (one record per line, '#' starts a comment):
//   psdp <kind> 1                       header; kind in {packing-dense,
//                                       packing-factorized, covering,
//                                       packing-lp}
//   size <n> <m>                        (packing-lp: <rows l> <cols n>)
//   constraint <i> <nnz>                then nnz lines "r c v" (r <= c for
//                                       dense symmetric; any r,c for factors)
//   objective <nnz>                     covering only
//   rhs <b_0> ... <b_{n-1}>             covering only
//   matrix <nnz>                        packing-lp only; lines "j i v"
#pragma once

#include <iosfwd>
#include <string>

#include "core/instance.hpp"
#include "core/poslp.hpp"

namespace psdp::io {

/// Writers.
void write_packing(std::ostream& out, const core::PackingInstance& instance);
void write_factorized(std::ostream& out,
                      const core::FactorizedPackingInstance& instance);
void write_covering(std::ostream& out, const core::CoveringProblem& problem);
void write_lp(std::ostream& out, const core::PackingLp& lp);

/// Readers; throw InvalidArgument on malformed input. The factorized reader
/// builds each factor's transpose index (tall factors) as it loads.
core::PackingInstance read_packing(std::istream& in);
/// `shards` > 1 cuts the loaded constraints into that many nnz-balanced
/// contiguous partitions (the out-of-core oracle sweep granularity); 0 or 1
/// keeps the legacy unsharded instance.
core::FactorizedPackingInstance read_factorized(std::istream& in,
                                                Index shards = 0);
core::CoveringProblem read_covering(std::istream& in);
core::PackingLp read_lp(std::istream& in);

/// File convenience wrappers.
void save_packing(const std::string& path, const core::PackingInstance& instance);
core::PackingInstance load_packing(const std::string& path);
void save_factorized(const std::string& path,
                     const core::FactorizedPackingInstance& instance);
core::FactorizedPackingInstance load_factorized(const std::string& path,
                                                Index shards = 0);
void save_covering(const std::string& path, const core::CoveringProblem& problem);
core::CoveringProblem load_covering(const std::string& path);
void save_lp(const std::string& path, const core::PackingLp& lp);
core::PackingLp load_lp(const std::string& path);

}  // namespace psdp::io
