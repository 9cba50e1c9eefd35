// Scalar reference kernel table: the portable C++ bodies every other
// level is tested against bit-for-bit. Compiled with the project's
// baseline flags only — no ISA assumptions.
#include "sc/kernels/kernels_internal.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace {
#include "sc/kernels/kernels_impl.inl"
}  // namespace

namespace acoustic::sc::kernels::detail {

const KernelTable& scalar_table() noexcept {
  static const KernelTable table = {
      "scalar",
      Level::kScalar,
      &generic_compare_pack,
      &generic_and_words,
      &generic_or_words,
      &generic_xor_words,
      &generic_xnor_words,
      &generic_popcount_words,
      &generic_and_or_popcount,
      &generic_gather_and_or_popcount,
      &generic_max_stream,
  };
  return table;
}

}  // namespace acoustic::sc::kernels::detail
