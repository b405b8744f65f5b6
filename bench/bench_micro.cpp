// Micro-benchmarks (google-benchmark): throughput of the DSP/PHY/crypto
// primitives the shield's real-time loop is built from.
#include <benchmark/benchmark.h>

#include <string>
#include <utility>
#include <vector>

#include "crypto/aead.hpp"
#include "dsp/fft.hpp"
#include "dsp/kernels.hpp"
#include "dsp/rng.hpp"
#include "mics/channelizer.hpp"
#include "phy/fsk.hpp"
#include "phy/frame.hpp"
#include "phy/receiver.hpp"
#include "shield/jamgen.hpp"
#include "shield/sid_matcher.hpp"

using namespace hs;

namespace {

void BM_Fft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dsp::Rng rng(1);
  dsp::Samples data(n);
  rng.fill_awgn(data, 1.0);
  for (auto _ : state) {
    dsp::fft_inplace(data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Fft)->Arg(256)->Arg(1024)->Arg(4096);

void BM_FskModulate(benchmark::State& state) {
  phy::FskParams fsk;
  phy::FskModulator mod(fsk);
  dsp::Rng rng(2);
  phy::BitVec bits(512);
  for (auto& b : bits) b = rng.next_u64() & 1;
  for (auto _ : state) {
    auto wave = mod.modulate(bits);
    benchmark::DoNotOptimize(wave.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bits.size()));
}
BENCHMARK(BM_FskModulate);

void BM_FskDemodulate(benchmark::State& state) {
  phy::FskParams fsk;
  dsp::Rng rng(3);
  phy::BitVec bits(512);
  for (auto& b : bits) b = rng.next_u64() & 1;
  const auto wave = phy::fsk_modulate(fsk, bits);
  phy::NoncoherentFskDemod demod(fsk);
  for (auto _ : state) {
    auto out = demod.demodulate(wave, 0, bits.size());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bits.size()));
}
BENCHMARK(BM_FskDemodulate);

void BM_ReceiverFrame(benchmark::State& state) {
  phy::FskParams fsk;
  phy::Frame frame;
  frame.device_id = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  frame.payload.assign(32, 0xA5);
  const auto wave = phy::fsk_modulate(fsk, phy::encode_frame(frame));
  dsp::Rng rng(4);
  dsp::Samples sig(600 + wave.size() + 600);
  rng.fill_awgn(sig, 1e-9);
  for (std::size_t i = 0; i < wave.size(); ++i) sig[600 + i] += wave[i];
  for (auto _ : state) {
    phy::FskReceiver rx(fsk);
    rx.push(sig);
    auto f = rx.pop();
    benchmark::DoNotOptimize(f);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sig.size()));
}
BENCHMARK(BM_ReceiverFrame);

void BM_JamGen(benchmark::State& state) {
  phy::FskParams fsk;
  shield::JammingSignalGenerator gen(fsk, shield::JamProfile::kShaped, 5);
  gen.set_power(1.0);
  for (auto _ : state) {
    auto block = gen.next(4096);
    benchmark::DoNotOptimize(block.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          4096);
}
BENCHMARK(BM_JamGen);

void BM_SidMatcher(benchmark::State& state) {
  phy::DeviceId id = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  shield::SidMatcher matcher(phy::make_sid(id), 4);
  dsp::Rng rng(6);
  phy::BitVec bits(4096);
  for (auto& b : bits) b = rng.next_u64() & 1;
  for (auto _ : state) {
    matcher.reset();
    bool fired = matcher.push(bits);
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bits.size()));
}
BENCHMARK(BM_SidMatcher);

void BM_AeadSeal(benchmark::State& state) {
  crypto::Aead::Key key{};
  crypto::Aead::Nonce nonce{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i);
  }
  crypto::Bytes msg(static_cast<std::size_t>(state.range(0)), 0x42);
  for (auto _ : state) {
    auto sealed = crypto::Aead::seal(
        key, nonce, crypto::ByteView(msg.data(), msg.size()), {});
    benchmark::DoNotOptimize(sealed.ciphertext.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AeadSeal)->Arg(64)->Arg(1024);

void BM_Channelizer(benchmark::State& state) {
  mics::Channelizer channelizer;
  dsp::Rng rng(7);
  dsp::Samples wideband(4096);
  rng.fill_awgn(wideband, 1.0);
  std::array<dsp::Samples, mics::kChannelCount> out;
  for (auto _ : state) {
    for (auto& ch : out) ch.clear();
    channelizer.process(wideband, out);
    benchmark::DoNotOptimize(out[0].data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wideband.size()));
}
BENCHMARK(BM_Channelizer);

// ---- dsp::kernels: every kernel on every backend the host runs ----------

namespace kernels = dsp::kernels;

/// Kernel operands at perfbench's shapes: the receiver's sync reference
/// (preamble and sync word at the default samples per symbol) slid over
/// white noise, one FSK symbol, one 48-sample medium block, and the FIR
/// tap counts of the resamplers (101) and the band-pass eavesdropper (65).
struct KernelInputs {
  static constexpr std::size_t kLags = 4096;
  static constexpr std::size_t kBlock = 48;
  static constexpr std::size_t kRealTaps = 101;
  static constexpr std::size_t kCplxTaps = 65;

  KernelInputs()
      : sps(phy::FskParams{}.sps),
        sync_len((phy::kPreambleBytes + phy::kSyncBytes) * 8 * sps),
        noise(sync_len + kLags),
        ref(sync_len),
        tone_a(4 * sps),
        tone_b(4 * sps),
        taps(kRealTaps),
        tap_re(kCplxTaps),
        tap_im(kCplxTaps) {
    dsp::Rng rng(8);
    rng.fill_awgn(noise.view(), 1.0);
    rng.fill_awgn(ref.view(), 1.0);
    for (std::size_t i = 0; i < noise.size(); ++i) {
      power.push_back(noise.re()[i] * noise.re()[i] +
                      noise.im()[i] * noise.im()[i]);
    }
    for (std::size_t i = 0; i < sync_len; ++i) {
      ref_energy += ref.re()[i] * ref.re()[i] + ref.im()[i] * ref.im()[i];
    }
    ref_tail = kernels::sync_tail_energy(ref.re(), ref.im(), sync_len);
    kernels::pack_dual_tones(ref.re(), ref.im(), ref.re() + sps, ref.im() + sps,
                             sps, tone_a.data(), tone_b.data());
    for (std::vector<double>* plane : {&taps, &tap_re, &tap_im}) {
      for (double& x : *plane) x = rng.uniform(-1.0, 1.0);
    }
  }

  std::size_t sps;
  std::size_t sync_len;
  dsp::SoaSamples noise;
  std::vector<double> power;
  dsp::SoaSamples ref;
  double ref_energy = 0.0;
  kernels::SyncTailEnergy ref_tail{};
  std::vector<double> tone_a, tone_b;
  std::vector<double> taps, tap_re, tap_im;
};

const KernelInputs& kernel_inputs() {
  static const KernelInputs in;
  return in;
}

/// The receiver's early-exit sync correlation, one lag per iteration
/// across kLags lags of noise, at its detection threshold: most calls
/// stop after two of six segments, as they do on the air.
void BM_KernelSyncBelow(benchmark::State& state,
                        const kernels::KernelTable* t) {
  const KernelInputs& in = kernel_inputs();
  const double threshold = phy::ReceiverOptions{}.detect_threshold;
  std::size_t lag = 0;
  for (auto _ : state) {
    const double c = t->sync_correlation_below(
        in.noise.re() + lag, in.noise.im() + lag, in.power.data() + lag,
        in.ref.re(), in.ref.im(), in.sync_len, in.ref_energy,
        in.ref_tail.data(), threshold);
    benchmark::DoNotOptimize(c);
    lag = (lag + 1) % KernelInputs::kLags;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(in.sync_len));
}

void BM_KernelDualTone(benchmark::State& state,
                       const kernels::KernelTable* t) {
  const KernelInputs& in = kernel_inputs();
  for (auto _ : state) {
    const kernels::DualToneAccum a = t->dual_tone_mac(
        in.noise.re(), in.noise.im(), in.tone_a.data(), in.tone_b.data(),
        in.sps);
    benchmark::DoNotOptimize(a);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(in.sps));
}

void BM_KernelCmac(benchmark::State& state, const kernels::KernelTable* t) {
  const KernelInputs& in = kernel_inputs();
  std::vector<double> out_re(KernelInputs::kBlock);
  std::vector<double> out_im(KernelInputs::kBlock);
  for (auto _ : state) {
    t->cmac(out_re.data(), out_im.data(), in.noise.re(), in.noise.im(), 0.5,
            -0.25, KernelInputs::kBlock);
    benchmark::DoNotOptimize(out_re.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          KernelInputs::kBlock);
}

void BM_KernelFirReal(benchmark::State& state,
                      const kernels::KernelTable* t) {
  const KernelInputs& in = kernel_inputs();
  std::vector<double> out_re(KernelInputs::kBlock);
  std::vector<double> out_im(KernelInputs::kBlock);
  for (auto _ : state) {
    t->fir_block_real(in.taps.data(), KernelInputs::kRealTaps, in.noise.re(),
                      in.noise.im(), out_re.data(), out_im.data(),
                      KernelInputs::kBlock);
    benchmark::DoNotOptimize(out_re.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          KernelInputs::kBlock);
}

void BM_KernelFirCplx(benchmark::State& state,
                      const kernels::KernelTable* t) {
  const KernelInputs& in = kernel_inputs();
  std::vector<double> out_re(KernelInputs::kBlock);
  std::vector<double> out_im(KernelInputs::kBlock);
  for (auto _ : state) {
    t->fir_block_cplx(in.tap_re.data(), in.tap_im.data(),
                      KernelInputs::kCplxTaps, in.noise.re(), in.noise.im(),
                      out_re.data(), out_im.data(), KernelInputs::kBlock);
    benchmark::DoNotOptimize(out_re.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          KernelInputs::kBlock);
}

/// One row per kernel and backend that backend_table returns, named
/// BM_Kernel<kernel>/<backend>.
const bool kKernelRowsRegistered = [] {
  using Row = void (*)(benchmark::State&, const kernels::KernelTable*);
  const std::pair<const char*, Row> rows[] = {
      {"BM_KernelSyncBelow", BM_KernelSyncBelow},
      {"BM_KernelDualTone", BM_KernelDualTone},
      {"BM_KernelCmac", BM_KernelCmac},
      {"BM_KernelFirReal", BM_KernelFirReal},
      {"BM_KernelFirCplx", BM_KernelFirCplx},
  };
  for (const kernels::Backend b :
       {kernels::Backend::kScalar, kernels::Backend::kSse2,
        kernels::Backend::kAvx2}) {
    const kernels::KernelTable* t = kernels::backend_table(b);
    if (t == nullptr) continue;
    for (const auto& [name, row] : rows) {
      const std::string full =
          std::string(name) + "/" + kernels::backend_name(b);
      benchmark::RegisterBenchmark(full.c_str(), row, t);
    }
  }
  return true;
}();

}  // namespace

BENCHMARK_MAIN();
