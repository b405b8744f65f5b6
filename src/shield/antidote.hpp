// Antidote computation (paper section 5, equations 1-2).
//
// The shield's receive antenna is connected to both a transmit and a
// receive chain. While the jamming antenna transmits j(t), the transmit
// chain sends the antidote x(t) = -(H_jam->rec / H_self) j(t), cancelling
// the jamming signal at the receive antenna's front end — and, because
// |H_jam->rec / H_self| << 1 (about -27 dB on the paper's USRP2), at no
// other point in space (equations 3-5).
//
// The controller owns the channel estimates (refreshed from probes sent
// every probe interval, or immediately before transmitting/jamming) and
// models the analog imperfection that bounds real cancellation: the
// antidote leaves the DAC/mixer with a small multiplicative error
// (1 + eps), eps ~ CN(0, sigma^2), redrawn per estimation epoch. With
// sigma = 2.5% this yields the ~32 dB mean cancellation of Fig. 7.
#pragma once

#include <cstdint>
#include <optional>

#include "dsp/rng.hpp"
#include "dsp/types.hpp"

namespace hs::snapshot {
class StateWriter;
class StateReader;
}  // namespace hs::snapshot

namespace hs::shield {

class AntidoteController {
 public:
  AntidoteController(double hardware_error_sigma, std::uint64_t seed);

  /// Stores a fresh estimate of the jamming-antenna -> receive-antenna
  /// channel (from a probe on the jamming antenna).
  void update_jam_channel(dsp::cplx h);

  /// Stores a fresh estimate of the self-loop channel (from a probe on the
  /// receive antenna's transmit chain).
  void update_self_channel(dsp::cplx h);

  /// Starts a new analog epoch: redraws the hardware error. Called when a
  /// probe pair completes.
  void begin_epoch();

  /// Both channels estimated at least once.
  bool ready() const { return h_jam_to_rec_ && h_self_; }

  /// The coefficient applied to the jamming samples to produce the
  /// antidote actually leaving the transmit chain:
  ///   x(t) = coeff * j(t),  coeff = -(H_jam->rec / H_self) * (1 + eps).
  dsp::cplx antidote_coefficient() const;

  /// The ideal (error-free) coefficient; tests use it as ground truth.
  dsp::cplx ideal_coefficient() const;

  dsp::cplx self_channel() const;

  /// Resets to the never-probed state.
  void reset();

  /// Two-phase seeding, trial half: future epoch draws come from the
  /// per-trial stream, while the channel estimates and the current
  /// hardware-error draw — the post-calibration operating point — are
  /// kept.
  void reseed(std::uint64_t trial_seed);

  /// Warm-state snapshot round trip: channel estimates, the live
  /// hardware-error draw and the RNG stream position.
  void save_state(snapshot::StateWriter& w) const;
  void load_state(snapshot::StateReader& r);

 private:
  double sigma_;
  dsp::Rng rng_;
  std::optional<dsp::cplx> h_jam_to_rec_;
  std::optional<dsp::cplx> h_self_;
  dsp::cplx hardware_error_{0.0, 0.0};
};

/// Generates the deterministic unit-power PN probe waveform used for
/// channel estimation (known to the shield, so a least-squares estimate of
/// the flat channel falls out of one correlation).
dsp::Samples make_probe_waveform(std::size_t length, std::uint64_t seed);

}  // namespace hs::shield
