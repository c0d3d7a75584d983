/// The NEON classify and direction kernels (AArch64, where AdvSIMD is
/// baseline — so no special compile flags are needed, only a dedicated TU
/// for symmetry with the AVX2 variant and for per-variant differential
/// testing).

#if !defined(__aarch64__)
#error "grid_eval_kernel_neon.cpp is AArch64-only"
#endif

#include "fvc/core/grid_eval_kernel.hpp"
#include "fvc/core/simd.hpp"

namespace fvc::core::detail {

ClassifyResult classify_neon(const CandSpans& c, std::size_t count, double px,
                             double py, bool torus, double* xs, double* ys,
                             std::uint32_t* special) {
  return classify_batches<simd::NeonBatch>(c, count, px, py, torus, xs, ys,
                                           special);
}

void approx_directions_neon(const double* xs, const double* ys, std::size_t count,
                            double* out) {
  approx_directions_batches<simd::NeonBatch>(xs, ys, count, out);
}

}  // namespace fvc::core::detail
