/// The AVX2 classify and direction kernels.  This translation unit is the
/// only one in the build compiled with -mavx2 (see src/CMakeLists.txt): it
/// must contain nothing but the kernel instantiations, and must not define
/// any inline/template symbol another TU could also instantiate — otherwise
/// the linker could fold a baseline caller onto AVX2 code and fault on
/// pre-AVX2 hosts.  Its exported symbols, classify_avx2 and
/// approx_directions_avx2, are reached only after runtime dispatch
/// (cpu_features.hpp) confirms AVX2.

#if !defined(__AVX2__)
#error "grid_eval_kernel_avx2.cpp must be compiled with -mavx2"
#endif

#include "fvc/core/grid_eval_kernel.hpp"
#include "fvc/core/simd.hpp"

namespace fvc::core::detail {

ClassifyResult classify_avx2(const CandSpans& c, std::size_t count, double px,
                             double py, bool torus, double* xs, double* ys,
                             std::uint32_t* special) {
  return classify_batches<simd::Avx2Batch>(c, count, px, py, torus, xs, ys,
                                           special);
}

void approx_directions_avx2(const double* xs, const double* ys, std::size_t count,
                            double* out) {
  approx_directions_batches<simd::Avx2Batch>(xs, ys, count, out);
}

}  // namespace fvc::core::detail
