// The SIMD dispatch seam: one runtime-selected kernel table behind which
// every hot inner loop of the sparse/linalg/core layers runs.
//
// Backends are separate translation units compiled with per-file arch flags
// (see CMakeLists.txt, PSDP_SIMD): a scalar reference backend that keeps the
// pre-SIMD loops verbatim -- the bit-identity anchor every equivalence test
// compares against -- plus AVX2, AVX-512 and NEON backends built on the
// fixed-width vector wrappers of simd/vec.hpp. At startup the best backend
// that is both compiled in and supported by the running CPU becomes active;
// the PSDP_SIMD environment variable ("scalar", "avx2", "avx512", "neon",
// "auto") overrides the pick, and set_active_isa() switches it
// programmatically (tests, benches' forced-scalar measurements).
//
// Determinism contract (see docs/ARCHITECTURE.md, "The simd layer"):
//  * Within one ISA, every kernel reduces each output element through the
//    same per-element operation chain (fused multiply-add on the vector
//    backends, separate multiply+add on the scalar one), so the cross-kernel
//    bitwise guarantees of the sparse layer -- gather == segmented gather ==
//    single-chunk scatter, SpMM column == SpMV -- hold under every backend.
//  * The scalar backend is bit-identical to the pre-SIMD implementation.
//  * Across ISAs results differ only by FMA-contraction-level rounding
//    (one rounding per multiply-add step); tests bound it in ulps.
#pragma once

#include <vector>

#include "simd/kernel_table.hpp"
#include "util/common.hpp"

namespace psdp::simd {

/// Instruction sets a kernel backend can target, in preference order.
enum class Isa {
  kScalar = 0,  ///< reference loops, bit-identical to the pre-SIMD kernels
  kNeon = 1,    ///< 128-bit NEON (aarch64)
  kAvx2 = 2,    ///< 256-bit AVX2 + FMA
  kAvx512 = 3,  ///< 512-bit AVX-512F
};

/// Stable lower-case name ("scalar", "neon", "avx2", "avx512") used by the
/// JSON serializations, the bench banners, and the PSDP_SIMD env override.
const char* isa_name(Isa isa);

/// Parse an isa_name() string; returns false on unknown names.
bool isa_from_name(const std::string& name, Isa& out);

/// ISAs whose backends were compiled into this binary (always includes
/// kScalar; the others depend on the PSDP_SIMD build knob and target arch).
std::vector<Isa> compiled_isas();

/// True when `isa` is compiled in AND supported by the running CPU.
bool isa_available(Isa isa);

/// The best available ISA (highest preference among isa_available()).
Isa best_supported_isa();

/// The ISA the process currently dispatches to. Initialized on first use to
/// best_supported_isa(), or to the PSDP_SIMD environment override when set
/// (unavailable override values fall back to the best supported ISA).
Isa active_isa();

/// Switch the active ISA; throws InvalidArgument when `isa` is not
/// available. Takes effect for every subsequent active_kernels() call --
/// callers flip it only at known-quiescent points (tests, benches).
void set_active_isa(Isa isa);

/// The kernel table of the active ISA. One atomic pointer load; safe to
/// call from any thread.
const KernelTable& active_kernels();

/// RAII ISA override for tests and the benches' scalar-vs-SIMD
/// measurements: restores the previous active ISA on scope exit.
class ScopedIsa {
 public:
  explicit ScopedIsa(Isa isa) : saved_(active_isa()) { set_active_isa(isa); }
  ~ScopedIsa() { set_active_isa(saved_); }
  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;

 private:
  Isa saved_;
};

}  // namespace psdp::simd
