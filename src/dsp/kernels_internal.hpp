// Internal glue between the kernel dispatch (kernels.cpp) and the
// per-ISA translation units (kernels_sse2.cpp, kernels_avx2.cpp). Each ISA
// TU is compiled with exactly its target flag on top of the build's flags
// and returns nullptr when the build could not enable that ISA, so dispatch
// degrades gracefully on non-x86 hosts and conservative toolchains.
#pragma once

#include "dsp/kernels.hpp"

namespace hs::dsp::kernels {

/// SSE2 table, or nullptr when this build has no SSE2 code paths.
const KernelTable* sse2_kernel_table();

/// AVX2 table, or nullptr when this build has no AVX2 code paths.
const KernelTable* avx2_kernel_table();

}  // namespace hs::dsp::kernels
