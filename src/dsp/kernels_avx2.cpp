// AVX2 kernel backend: the kernels_vector.hpp bodies, with each four-lane
// step as one 4-wide vector. Compiled with -mavx2 (CMakeLists.txt); its
// table is reached only after a runtime __builtin_cpu_supports("avx2")
// check (kernels.cpp).

#include "dsp/kernels_internal.hpp"

#if defined(__AVX2__)
#include "dsp/kernels_vector.hpp"
#endif

namespace hs::dsp::kernels {

const KernelTable* avx2_kernel_table() {
#if defined(__AVX2__)
  return &kVectorTable;
#else
  return nullptr;
#endif
}

}  // namespace hs::dsp::kernels
