/// @file
/// Radix-2 FFT used for jamming-signal shaping (per-bin Gaussian noise ->
/// IFFT, paper section 6(a)) and for spectrum estimation (Figs. 4 and 5).
///
/// Twiddle factors come from a per-size cache computed directly with
/// std::polar (1-ulp accuracy at every index), not from the multiplicative
/// recurrence whose phase error grows O(n*eps) across a transform. The
/// cache is shared across threads and lives for the program's lifetime.
///
/// Size contract: the in-place transforms require power-of-two input and
/// throw otherwise. The out-of-place `fft()` convenience wrapper
/// zero-pads its *time-domain* input up to the next power of two (the
/// output therefore has next_pow2(input.size()) bins); `ifft()` requires
/// a power-of-two bin vector and throws otherwise — zero-padding a
/// spectrum would silently rescale the reconstructed signal.
#pragma once

#include <cstddef>

#include "dsp/types.hpp"

namespace hs::dsp {

/// Returns the smallest power of two >= n (n >= 1).
std::size_t next_pow2(std::size_t n);

/// True if n is a power of two (and non-zero).
bool is_pow2(std::size_t n);

/// In-place iterative radix-2 DIT FFT. `data.size()` must be a power of two.
/// Forward transform, no normalization.
void fft_inplace(MutSampleView data);

/// In-place inverse FFT with 1/N normalization.
void ifft_inplace(MutSampleView data);

/// Out-of-place forward transform. The time-domain input is zero-padded to
/// next_pow2(input.size()), so the result has that many bins and
/// `ifft(fft(x))` reconstructs x followed by the padding zeros. Callers
/// that need an exact-length round trip must truncate back to
/// `input.size()` themselves (or supply power-of-two input).
Samples fft(SampleView input);

/// Out-of-place inverse transform with 1/N normalization. `input` is a bin
/// vector and must already be a power of two; throws std::invalid_argument
/// otherwise (a spectrum cannot be meaningfully zero-padded).
Samples ifft(SampleView input);

/// Frequency (Hz) of FFT bin `k` out of `n` at sample rate `fs`, mapped to
/// the range [-fs/2, fs/2).
double bin_frequency(std::size_t k, std::size_t n, double fs);

/// Bin index (0..n-1) whose center frequency is closest to `freq_hz`
/// (freq in [-fs/2, fs/2)).
std::size_t frequency_bin(double freq_hz, std::size_t n, double fs);

}  // namespace hs::dsp
