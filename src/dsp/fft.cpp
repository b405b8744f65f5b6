#include "dsp/fft.hpp"

#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace hs::dsp {

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

namespace {

// Per-size cache of forward twiddle factors w[k] = exp(-i 2 pi k / n),
// k in [0, n/2). Each factor is computed directly by std::polar, so it is
// accurate to ~1 ulp regardless of n — unlike the previous per-butterfly
// `w *= wlen` recurrence, whose phase error grows with the number of
// multiplies (O(n * eps) by the last stage) exactly where the jamming
// profile and cancellation presets measure -40 dB features.
//
// The cache is shared by all threads: campaign workers transform
// concurrently, so the map is mutex-guarded. Entries are never evicted and
// their storage never moves, so the returned reference stays valid for the
// program's lifetime while later insertions proceed.
struct TwiddleTable {
  std::size_t n = 0;
  std::vector<cplx> w;  // forward twiddles, size n/2

  explicit TwiddleTable(std::size_t size) : n(size), w(size / 2) {
    for (std::size_t k = 0; k < w.size(); ++k) {
      w[k] = std::polar(1.0, -kTwoPi * static_cast<double>(k) /
                                 static_cast<double>(n));
    }
  }
};

const TwiddleTable& twiddles_for(std::size_t n) {
  // Each worker thread transforms at one or two fixed sizes (jamgen
  // fft_size, equalizer taps), so a thread-local memo of the last table
  // keeps the steady state lock-free; the mutex is only taken when a
  // thread first meets a size. Entries are never deleted, so the cached
  // pointer can never dangle.
  thread_local const TwiddleTable* last = nullptr;
  if (last != nullptr && last->n == n) return *last;
  static std::mutex mu;
  static std::map<std::size_t, std::unique_ptr<const TwiddleTable>> cache;
  std::lock_guard<std::mutex> lock(mu);
  auto& slot = cache[n];
  if (!slot) slot = std::make_unique<const TwiddleTable>(n);
  last = slot.get();
  return *slot;
}

void transform(MutSampleView data, bool inverse) {
  const std::size_t n = data.size();
  if (!is_pow2(n)) {
    throw std::invalid_argument("fft: size must be a power of two");
  }
  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
  if (n < 2) return;
  // Butterflies, twiddles read from the cached table: the stage of length
  // `len` uses every (n/len)-th entry. The inverse transform conjugates on
  // the fly (the twiddle's imaginary part times -1, an exact negation).
  //
  // The butterfly works on the re/im doubles of the std::complex array
  // (array-of-two-doubles access is guaranteed by [complex.numbers]),
  // computing v = b * w with exactly the products and sums of the
  // -fcx-limited-range expansion, (br*wr - bi*wi, br*wi + bi*wr), so the
  // result is bit-identical to the complex-typed butterfly. Written on
  // doubles, u and v stay in registers; GCC compiles the complex-typed
  // form to spill u as two 8-byte stores and reload it as one 16-byte
  // load, which stalls on store forwarding in every butterfly.
  const TwiddleTable& table = twiddles_for(n);
  const cplx* tw = table.w.data();
  const double conj_sign = inverse ? -1.0 : 1.0;
  double* d = reinterpret_cast<double*>(data.data());
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const std::size_t stride = n / len;
    for (std::size_t i = 0; i < n; i += len) {
      double* a = d + 2 * i;
      double* b = d + 2 * (i + half);
      for (std::size_t k = 0; k < half; ++k) {
        const double wr = tw[k * stride].real();
        const double wi = conj_sign * tw[k * stride].imag();
        const double br = b[2 * k];
        const double bi = b[2 * k + 1];
        const double vr = br * wr - bi * wi;
        const double vi = br * wi + bi * wr;
        const double ur = a[2 * k];
        const double ui = a[2 * k + 1];
        a[2 * k] = ur + vr;
        a[2 * k + 1] = ui + vi;
        b[2 * k] = ur - vr;
        b[2 * k + 1] = ui - vi;
      }
    }
  }
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& x : data) x *= inv_n;
  }
}

}  // namespace

void fft_inplace(MutSampleView data) { transform(data, /*inverse=*/false); }

void ifft_inplace(MutSampleView data) { transform(data, /*inverse=*/true); }

Samples fft(SampleView input) {
  Samples out(input.begin(), input.end());
  out.resize(next_pow2(out.empty() ? 1 : out.size()));
  fft_inplace(out);
  return out;
}

Samples ifft(SampleView input) {
  if (!is_pow2(input.size())) {
    // Padding a *spectrum* would silently rescale and re-grid the signal,
    // which is how the old pad-anything behavior corrupted
    // ifft(fft(x)) round-trips for non-power-of-two x. A non-2^k bin
    // vector is a caller bug, not something to paper over.
    throw std::invalid_argument(
        "ifft: bin count must be a power of two (fft() zero-pads its "
        "time-domain input, so spectra are always 2^k bins)");
  }
  Samples out(input.begin(), input.end());
  ifft_inplace(out);
  return out;
}

double bin_frequency(std::size_t k, std::size_t n, double fs) {
  const double f = static_cast<double>(k) * fs / static_cast<double>(n);
  return (k < (n + 1) / 2) ? f : f - fs;
}

std::size_t frequency_bin(double freq_hz, std::size_t n, double fs) {
  double f = freq_hz;
  if (f < 0) f += fs;
  auto k = static_cast<long long>(std::llround(f * static_cast<double>(n) / fs));
  if (k < 0) k = 0;
  if (k >= static_cast<long long>(n)) k = static_cast<long long>(n) - 1;
  return static_cast<std::size_t>(k);
}

}  // namespace hs::dsp
