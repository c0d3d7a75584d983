#include "fvc/core/cpu_features.hpp"

#include <array>

namespace fvc::core {

namespace {

constexpr std::array<std::string_view, kKernelVariantCount> kNames = {
    "scalar", "generic", "avx2", "neon"};

bool cpu_has_avx2() {
#if defined(__x86_64__) || defined(_M_X64)
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
#else
  return false;
#endif
}

bool cpu_has_neon() {
#if defined(__aarch64__)
  return true;  // AdvSIMD is baseline on AArch64
#else
  return false;
#endif
}

}  // namespace

std::string_view kernel_name(KernelVariant v) {
  return kNames.at(static_cast<std::size_t>(v));
}

std::size_t kernel_lanes(KernelVariant v) {
  return v == KernelVariant::kScalar ? 1 : 4;
}

bool kernel_compiled(KernelVariant v) {
  switch (v) {
    case KernelVariant::kScalar:
    case KernelVariant::kGeneric:
      return true;
    case KernelVariant::kAvx2:
#if defined(FVC_KERNEL_AVX2)
      return true;
#else
      return false;
#endif
    case KernelVariant::kNeon:
#if defined(FVC_KERNEL_NEON)
      return true;
#else
      return false;
#endif
  }
  return false;
}

bool kernel_supported(KernelVariant v) {
  if (!kernel_compiled(v)) {
    return false;
  }
  switch (v) {
    case KernelVariant::kScalar:
    case KernelVariant::kGeneric:
      return true;
    case KernelVariant::kAvx2:
      return cpu_has_avx2();
    case KernelVariant::kNeon:
      return cpu_has_neon();
  }
  return false;
}

KernelVariant preferred_kernel() {
  if (kernel_supported(KernelVariant::kAvx2)) {
    return KernelVariant::kAvx2;
  }
  if (kernel_supported(KernelVariant::kNeon)) {
    return KernelVariant::kNeon;
  }
  return KernelVariant::kGeneric;
}

}  // namespace fvc::core
