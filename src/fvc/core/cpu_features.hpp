/// \file cpu_features.hpp
/// \brief Runtime CPU capability probe and grid-eval kernel dispatch.
///
/// The batched grid-evaluation engine (grid_eval.hpp) has one hot inner
/// loop — the per-candidate classify — implemented as interchangeable
/// *kernel variants*:
///
///   scalar   the per-entry oracle loop (lane width 1); always available
///            and the reference every other variant is tested against
///   generic  the 4-wide batch kernel over the portable fallback backend
///            of simd.hpp (plain per-lane double arithmetic the compiler
///            may auto-vectorize); always available
///   avx2     the same batch kernel over AVX2 intrinsics; compiled only
///            on x86-64 with GCC/Clang, runnable only when the CPU
///            reports AVX2
///   neon     the same batch kernel over NEON intrinsics; compiled only
///            on AArch64 (where NEON is baseline)
///
/// Every variant is bit-identical by construction: lane arithmetic is the
/// same IEEE mul/add/compare sequence as the scalar oracle (see
/// docs/ARCHITECTURE.md).  Dispatch therefore only affects speed, never
/// results, and is a pure function of the build and the CPU: an engine
/// runs the widest supported variant (`preferred_kernel`).  `scalar` is
/// the test reference and dispatch never chooses it; tests reach it, and
/// every other variant, by passing the variant to the engine constructor.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace fvc::core {

/// The grid-eval kernel variants, in preference order (later = wider ISA).
enum class KernelVariant : std::uint8_t {
  kScalar = 0,
  kGeneric = 1,
  kAvx2 = 2,
  kNeon = 3,
};
inline constexpr std::size_t kKernelVariantCount = 4;

/// Stable lower-case name ("scalar", "generic", "avx2", "neon").
[[nodiscard]] std::string_view kernel_name(KernelVariant v);

/// Double lanes the variant processes per step (1 for scalar, else 4).
[[nodiscard]] std::size_t kernel_lanes(KernelVariant v);

/// True when the variant's kernel was compiled into this build.
[[nodiscard]] bool kernel_compiled(KernelVariant v);

/// True when the variant is compiled AND the running CPU can execute it.
[[nodiscard]] bool kernel_supported(KernelVariant v);

/// The widest supported variant: what every engine runs by default.
[[nodiscard]] KernelVariant preferred_kernel();

}  // namespace fvc::core
