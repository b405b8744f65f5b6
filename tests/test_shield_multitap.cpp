// Multipath antidote (paper footnote 2): when the antenna coupling is
// frequency-selective, the scalar antidote leaves a large residual while
// the FIR equalizer keeps cancelling.
#include <gtest/gtest.h>

#include <cmath>

#include "dsp/correlate.hpp"
#include "dsp/power.hpp"
#include "dsp/rng.hpp"
#include "shield/antidote.hpp"
#include "shield/jamgen.hpp"
#include "shield/multitap_antidote.hpp"

namespace hs::shield {
namespace {

using dsp::cplx;
using dsp::Samples;

Samples convolve(dsp::SampleView h, dsp::SampleView x) {
  Samples y(x.size(), cplx{});
  for (std::size_t n = 0; n < x.size(); ++n) {
    for (std::size_t k = 0; k < h.size() && k <= n; ++k) {
      y[n] += h[k] * x[n - k];
    }
  }
  return y;
}

/// Residual-to-jam ratio at a receive port where conv(hjr, j) and
/// conv(hself, antidote) superpose.
double measured_cancellation_db(dsp::SampleView hjr, dsp::SampleView hself,
                                dsp::SampleView jam,
                                dsp::SampleView antidote) {
  const auto via_air = convolve(hjr, jam);
  const auto via_wire = convolve(hself, antidote);
  double jam_power = 0.0, residual = 0.0;
  for (std::size_t n = 64; n < via_air.size(); ++n) {  // skip transients
    jam_power += std::norm(via_air[n]);
    residual += std::norm(via_air[n] + via_wire[n]);
  }
  return 10.0 * std::log10(jam_power / std::max(residual, 1e-30));
}

TEST(FirChannelEstimate, RecoversKnownTaps) {
  dsp::Rng rng(1);
  Samples probe(512);
  for (auto& x : probe) x = rng.random_phase();
  const Samples h = {cplx{0.02, 0.01}, cplx{-0.008, 0.004},
                     cplx{0.002, -0.001}};
  auto rx = convolve(h, probe);
  for (auto& x : rx) x += rng.cgaussian(1e-10);
  const auto est = estimate_fir_channel(rx, probe, 3);
  ASSERT_EQ(est.size(), 3u);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_NEAR(std::abs(est[k] - h[k]), 0.0, 5e-4) << "tap " << k;
  }
}

TEST(FirChannelEstimate, ExtraTapsEstimateNearZero) {
  dsp::Rng rng(2);
  Samples probe(512);
  for (auto& x : probe) x = rng.random_phase();
  const Samples h = {cplx{0.03, 0.0}};
  const auto rx = convolve(h, probe);
  const auto est = estimate_fir_channel(rx, probe, 4);
  EXPECT_NEAR(std::abs(est[0] - h[0]), 0.0, 1e-9);
  for (std::size_t k = 1; k < 4; ++k) {
    EXPECT_LT(std::abs(est[k]), 1e-9);
  }
}

TEST(FirChannelEstimate, RejectsDegenerateInput) {
  Samples probe(4, cplx{1.0, 0.0});
  Samples rx(4, cplx{});
  EXPECT_THROW(estimate_fir_channel(rx, probe, 0), std::invalid_argument);
  EXPECT_THROW(estimate_fir_channel(rx, probe, 3), std::invalid_argument);
}

TEST(MultitapAntidote, MatchesFlatAntidoteOnFlatChannels) {
  dsp::Rng rng(3);
  Samples probe(512);
  for (auto& x : probe) x = rng.random_phase();
  const Samples hjr = {cplx{0.03, -0.01}};
  const Samples hself = {cplx{0.65, 0.2}};

  MultitapAntidote antidote(2, 64);
  antidote.update_jam_channel(convolve(hjr, probe), probe);
  antidote.update_self_channel(convolve(hself, probe), probe);
  ASSERT_TRUE(antidote.ready());

  phy::FskParams fsk;
  JammingSignalGenerator gen(fsk, JamProfile::kShaped, 4);
  gen.set_power(1.0);
  const auto jam = gen.next(8192);
  const auto x = MultitapAntidote(antidote).antidote_for(jam);
  EXPECT_GT(measured_cancellation_db(hjr, hself, jam, x), 40.0);
}

TEST(MultitapAntidote, FlatAntidoteFailsOnMultipathMultitapSucceeds) {
  dsp::Rng rng(5);
  Samples probe(1024);
  for (auto& x : probe) x = rng.random_phase();
  // A strongly frequency-selective antenna coupling: second tap at -6 dB.
  const Samples hjr = {cplx{0.03, 0.0}, cplx{0.0, 0.015}};
  const Samples hself = {cplx{0.7, 0.0}};

  phy::FskParams fsk;
  JammingSignalGenerator gen(fsk, JamProfile::kShaped, 6);
  gen.set_power(1.0);
  const auto jam = gen.next(8192);

  // Flat (scalar) antidote, estimated the flat way.
  AntidoteController flat(0.0, 7);
  flat.update_jam_channel(
      dsp::estimate_flat_channel(convolve(hjr, probe), probe));
  flat.update_self_channel(
      dsp::estimate_flat_channel(convolve(hself, probe), probe));
  Samples flat_antidote(jam.size());
  const cplx coeff = flat.antidote_coefficient();
  for (std::size_t i = 0; i < jam.size(); ++i) {
    flat_antidote[i] = coeff * jam[i];
  }
  const double flat_db =
      measured_cancellation_db(hjr, hself, jam, flat_antidote);

  // FIR equalizer antidote.
  MultitapAntidote multitap(4, 64);
  multitap.update_jam_channel(convolve(hjr, probe), probe);
  multitap.update_self_channel(convolve(hself, probe), probe);
  const auto fir_antidote = multitap.antidote_for(jam);
  const double fir_db =
      measured_cancellation_db(hjr, hself, jam, fir_antidote);

  // The scalar antidote cannot null a two-tap channel (residual bounded
  // by the tap ratio ~ -6 dB => cancellation stuck around single digits);
  // the equalizer keeps cancelling deeply.
  EXPECT_LT(flat_db, 12.0);
  EXPECT_GT(fir_db, 30.0);
  EXPECT_GT(fir_db, flat_db + 15.0);
}

TEST(MultitapAntidote, SelfChannelMultipathAlsoHandled) {
  dsp::Rng rng(8);
  Samples probe(1024);
  for (auto& x : probe) x = rng.random_phase();
  const Samples hjr = {cplx{0.03, 0.0}};
  const Samples hself = {cplx{0.6, 0.0}, cplx{0.25, 0.1}};  // selective wire

  phy::FskParams fsk;
  JammingSignalGenerator gen(fsk, JamProfile::kShaped, 9);
  gen.set_power(1.0);
  const auto jam = gen.next(8192);

  MultitapAntidote multitap(4, 128);
  multitap.update_jam_channel(convolve(hjr, probe), probe);
  multitap.update_self_channel(convolve(hself, probe), probe);
  const auto x = multitap.antidote_for(jam);
  EXPECT_GT(measured_cancellation_db(hjr, hself, jam, x), 25.0);
}

TEST(MultitapAntidote, StreamingMatchesOneShot) {
  dsp::Rng rng(10);
  Samples probe(512);
  for (auto& x : probe) x = rng.random_phase();
  const Samples hjr = {cplx{0.02, 0.0}, cplx{0.01, 0.0}};
  const Samples hself = {cplx{0.7, 0.0}};
  MultitapAntidote one(3, 64), two(3, 64);
  for (auto* m : {&one, &two}) {
    m->update_jam_channel(convolve(hjr, probe), probe);
    m->update_self_channel(convolve(hself, probe), probe);
  }
  Samples jam(600);
  rng.fill_awgn(jam, 1.0);
  const auto batch = one.antidote_for(jam);
  Samples streamed;
  for (std::size_t i = 0; i < jam.size(); i += 48) {
    const std::size_t n = std::min<std::size_t>(48, jam.size() - i);
    const auto part = two.antidote_for(dsp::SampleView(jam.data() + i, n));
    streamed.insert(streamed.end(), part.begin(), part.end());
  }
  ASSERT_EQ(batch.size(), streamed.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_NEAR(std::abs(batch[i] - streamed[i]), 0.0, 1e-12);
  }
}

TEST(MultitapAntidote, NotReadyThrows) {
  MultitapAntidote antidote;
  Samples jam(16, cplx{1.0, 0.0});
  EXPECT_THROW(antidote.antidote_for(jam), std::logic_error);
  EXPECT_THROW(MultitapAntidote(4, 100), std::invalid_argument);
}

}  // namespace
}  // namespace hs::shield
