/// The portable classify and direction kernels: the 4-wide batch templates
/// over plain per-lane double arithmetic, compiled at the baseline ISA (the
/// compiler may auto-vectorize the lane loops with whatever the baseline
/// allows).  Always compiled; the runtime fallback on hosts without
/// AVX2/NEON, the direction kernel of the scalar variant, and a variant
/// the differential tests construct explicitly on every host.

#include "fvc/core/grid_eval_kernel.hpp"
#include "fvc/core/simd.hpp"

namespace fvc::core::detail {

ClassifyResult classify_generic(const CandSpans& c, std::size_t count, double px,
                                double py, bool torus, double* xs, double* ys,
                                std::uint32_t* special) {
  return classify_batches<simd::GenericBatch>(c, count, px, py, torus, xs, ys,
                                              special);
}

void approx_directions_generic(const double* xs, const double* ys, std::size_t count,
                               double* out) {
  approx_directions_batches<simd::GenericBatch>(xs, ys, count, out);
}

}  // namespace fvc::core::detail
