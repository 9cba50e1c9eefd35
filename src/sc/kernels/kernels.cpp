// Runtime dispatch for the SIMD kernel layer: CPUID feature detection,
// the ACOUSTIC_SIMD override, and the cached process-wide table.
#include "sc/kernels/kernels_internal.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>

namespace acoustic::sc::kernels {

bool level_supported(Level level) noexcept {
  switch (level) {
    case Level::kScalar:
      return true;
    case Level::kAvx2:
#if ACOUSTIC_KERNELS_X86_TABLES
      return __builtin_cpu_supports("avx2") != 0 &&
             __builtin_cpu_supports("popcnt") != 0;
#else
      return false;
#endif
  }
  return false;
}

Level detect_best() noexcept {
  return level_supported(Level::kAvx2) ? Level::kAvx2 : Level::kScalar;
}

const KernelTable& table_for([[maybe_unused]] Level level) noexcept {
#if ACOUSTIC_KERNELS_X86_TABLES
  if (level == Level::kAvx2) {
    return detail::avx2_table();
  }
#endif
  return detail::scalar_table();
}

const char* level_name(Level level) noexcept {
  return level == Level::kAvx2 ? "avx2" : "scalar";
}

Level resolve_level(const char* request) noexcept {
  if (request != nullptr) {
    for (const Level level : {Level::kScalar, Level::kAvx2}) {
      if (std::strcmp(request, level_name(level)) == 0) {
        return level_supported(level) ? level : detect_best();
      }
    }
  }
  return detect_best();  // unset, "native" or unknown: warn in table()
}

const KernelTable& table() noexcept {
  static const KernelTable& active = []() -> const KernelTable& {
    const char* request = std::getenv("ACOUSTIC_SIMD");
    const Level level = resolve_level(request);
    if (request != nullptr && *request != '\0' &&
        std::strcmp(request, "native") != 0 &&
        std::strcmp(request, level_name(level)) != 0) {
      std::fprintf(stderr,
                   "acoustic: ACOUSTIC_SIMD=%s not available, using %s\n",
                   request, level_name(level));
    }
    return table_for(level);
  }();
  return active;
}

Level active_level() noexcept { return table().level; }

}  // namespace acoustic::sc::kernels
