// Internal wiring between the per-level kernel translation units and the
// dispatcher (kernels.cpp). Each level lives in its own TU so CMake can
// compile it with that level's target flags (-mavx2 -mpopcnt) without
// raising the ISA floor of the rest of the library; the dispatcher only
// ever calls a table the running CPU supports.
#pragma once

#include "sc/kernels/kernels.hpp"

#if defined(__x86_64__) || defined(__i386__) || defined(_M_X64) || \
    defined(_M_IX86)
#define ACOUSTIC_KERNELS_X86_TABLES 1
#else
#define ACOUSTIC_KERNELS_X86_TABLES 0
#endif

namespace acoustic::sc::kernels::detail {

/// The scalar reference table (always available, portable C++).
[[nodiscard]] const KernelTable& scalar_table() noexcept;

#if ACOUSTIC_KERNELS_X86_TABLES
/// AVX2 table: 8-wide comparator packing, 256-bit word ops. Only call
/// through the dispatcher (requires AVX2 at runtime).
[[nodiscard]] const KernelTable& avx2_table() noexcept;
#endif

}  // namespace acoustic::sc::kernels::detail
