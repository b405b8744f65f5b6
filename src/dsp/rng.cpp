#include "dsp/rng.hpp"

#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace hs::dsp {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// One xoshiro256++ step on state words held wherever the caller keeps
// them: the member array for next_u64(), registers inside the fills.
inline std::uint64_t xoshiro_next(std::uint64_t& s0, std::uint64_t& s1,
                                  std::uint64_t& s2, std::uint64_t& s3) {
  const std::uint64_t result = rotl(s0 + s3, 23) + s0;
  const std::uint64_t t = s1 << 17;
  s2 ^= s0;
  s3 ^= s1;
  s1 ^= s2;
  s0 ^= s3;
  s2 ^= t;
  s3 = rotl(s3, 45);
  return result;
}

}  // namespace

std::uint64_t hash_stream_name(std::string_view name) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : name) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

Rng::Rng(std::uint64_t seed, std::string_view stream_name)
    : Rng(seed ^ hash_stream_name(stream_name)) {}

std::uint64_t derive_seed(std::uint64_t seed, std::string_view stream_name) {
  return Rng(seed, stream_name).next_u64();
}

std::uint64_t Rng::next_u64() {
  return xoshiro_next(s_[0], s_[1], s_[2], s_[3]);
}

double Rng::uniform() {
  // 53 top bits -> [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_u64(std::uint64_t n) {
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = n * ((~std::uint64_t{0}) / n);
  std::uint64_t x;
  do {
    x = next_u64();
  } while (x >= limit);
  return x % n;
}

namespace {

// Marsaglia-Tsang ziggurat tables for the standard normal (128 layers).
// The common case is one 64-bit draw, one table compare and one multiply
// — roughly 6x faster than Box-Muller's log/sqrt/sincos per sample, which
// matters because thermal noise (Medium::mix -> fill_awgn) is drawn for
// every antenna of every simulated block.
struct ZigguratTables {
  static constexpr double kR = 3.442619855899;  // start of the tail
  std::int64_t kn[128];
  double wn[128];
  double fn[128];

  ZigguratTables() {
    constexpr double m = 2147483648.0;  // 2^31, the |hz| scale
    const double vn = 9.91256303526217e-3;
    double dn = kR, tn = kR;
    const double q = vn / std::exp(-0.5 * dn * dn);
    kn[0] = static_cast<std::int64_t>((dn / q) * m);
    kn[1] = 0;
    wn[0] = q / m;
    wn[127] = dn / m;
    fn[0] = 1.0;
    fn[127] = std::exp(-0.5 * dn * dn);
    for (int i = 126; i >= 1; --i) {
      dn = std::sqrt(-2.0 * std::log(vn / dn + std::exp(-0.5 * dn * dn)));
      kn[i + 1] = static_cast<std::int64_t>((dn / tn) * m);
      tn = dn;
      fn[i] = std::exp(-0.5 * dn * dn);
      wn[i] = dn / m;
    }
  }
};

const ZigguratTables& ziggurat() {
  static const ZigguratTables tables;
  return tables;
}

// The common case: the draw lies inside its layer's rectangle and is
// accepted with one compare and one multiply.
inline bool ziggurat_rectangle(const ZigguratTables& z, std::int32_t hz,
                               double& x) {
  const std::size_t iz = static_cast<std::uint32_t>(hz) & 127u;
  if (std::abs(static_cast<std::int64_t>(hz)) >= z.kn[iz]) return false;
  x = hz * z.wn[iz];
  return true;
}

// Wedge and tail of the ziggurat for a draw `hz` that missed its layer
// rectangle; on a wedge rejection it starts over with rng.gaussian().
[[gnu::noinline]] double gaussian_slow(Rng& rng, std::int32_t hz) {
  const ZigguratTables& z = ziggurat();
  const std::size_t iz = static_cast<std::uint32_t>(hz) & 127u;
  if (iz == 0) {
    // Tail beyond kR (Marsaglia's exact tail method).
    double x, y;
    do {
      x = -std::log(1.0 - rng.uniform()) / ZigguratTables::kR;
      y = -std::log(1.0 - rng.uniform());
    } while (y + y < x * x);
    return hz > 0 ? ZigguratTables::kR + x : -ZigguratTables::kR - x;
  }
  // Wedge: exact accept/reject against the density.
  const double x = hz * z.wn[iz];
  if (z.fn[iz] + rng.uniform() * (z.fn[iz - 1] - z.fn[iz]) <
      std::exp(-0.5 * x * x)) {
    return x;
  }
  return rng.gaussian();
}

// The fills are the batched ziggurat. gaussian() is a call per variate
// that loads and stores the four state words every time, so the fills
// instead keep the state in locals, inline the rectangle accept path
// (draw, mask, compare, multiply) and write the state back once at the
// end. A draw that misses its rectangle stores the state, takes the same
// out-of-line gaussian_slow() path gaussian() takes, and reloads it, so
// a fill consumes exactly the stream draws, and returns exactly the
// values, of the equivalent sequence of gaussian() calls (re before im,
// sample by sample). Calls put(i, re, im) for i in [0, n).
template <class Put>
void fill_normal_pairs(Rng& rng, std::size_t n, Put put) {
  const ZigguratTables& z = ziggurat();
  std::array<std::uint64_t, 4> st = rng.state();
  const auto draw = [&]() {
    const auto hz =
        static_cast<std::int32_t>(xoshiro_next(st[0], st[1], st[2], st[3]));
    double x = 0.0;
    if (ziggurat_rectangle(z, hz, x)) [[likely]] {
      return x;
    }
    rng.set_state(st);
    x = gaussian_slow(rng, hz);
    st = rng.state();
    return x;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const double re = draw();
    const double im = draw();
    put(i, re, im);
  }
  rng.set_state(st);
}

}  // namespace

double Rng::gaussian() {
  const auto hz = static_cast<std::int32_t>(next_u64());
  double x = 0.0;
  return ziggurat_rectangle(ziggurat(), hz, x) ? x : gaussian_slow(*this, hz);
}

double Rng::gaussian(double mean, double stddev) {
  return mean + stddev * gaussian();
}

cplx Rng::cgaussian(double variance) {
  const double s = std::sqrt(variance / 2.0);
  return {s * gaussian(), s * gaussian()};
}

cplx Rng::random_phase() {
  const double phi = uniform(0.0, kTwoPi);
  return {std::cos(phi), std::sin(phi)};
}

void Rng::fill_awgn(MutSampleView out, double power) {
  const double s = std::sqrt(power / 2.0);
  fill_normal_pairs(*this, out.size(),
                    [&](std::size_t i, double re, double im) {
                      out[i] = {s * re, s * im};
                    });
}

void Rng::fill_awgn(MutSoaView out, double power) {
  const double s = std::sqrt(power / 2.0);
  double* re = out.re;
  double* im = out.im;
  fill_normal_pairs(*this, out.n,
                    [&](std::size_t i, double g_re, double g_im) {
                      re[i] = s * g_re;
                      im[i] = s * g_im;
                    });
}

void Rng::fill_cgaussian(MutSampleView out, std::span<const double> sigma) {
  if (sigma.size() != out.size()) {
    throw std::invalid_argument("fill_cgaussian: sigma/out size mismatch");
  }
  const double* sg = sigma.data();
  fill_normal_pairs(*this, out.size(),
                    [&](std::size_t i, double re, double im) {
                      out[i] = {sg[i] * re, sg[i] * im};
                    });
}

}  // namespace hs::dsp
