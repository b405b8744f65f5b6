// SSE2 kernel backend: the kernels_vector.hpp bodies, with each four-lane
// step as two 2-wide vectors (the x86-64 baseline ISA).

#include "dsp/kernels_internal.hpp"

#if defined(__SSE2__)
#include "dsp/kernels_vector.hpp"
#endif

namespace hs::dsp::kernels {

const KernelTable* sse2_kernel_table() {
#if defined(__SSE2__)
  return &kVectorTable;
#else
  return nullptr;
#endif
}

}  // namespace hs::dsp::kernels
