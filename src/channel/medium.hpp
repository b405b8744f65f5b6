// The shared wireless medium: complex flat-fading gains between every pair
// of antennas, linear superposition of all concurrent transmissions, and
// thermal noise at every receive port.
//
// This is the simulator's replacement for the paper's over-the-air USRP2
// testbed. Two properties the paper's security argument rests on are
// faithfully modelled:
//  * linearity — the channel adds concurrently transmitted signals, which
//    is what makes random jamming act as a one-time pad (section 6), and
//  * per-pair channels — H_self (the wire between the shield receive
//    antenna's transmit and receive chains) and H_jam->rec (the coupling
//    between the shield's adjacent antennas) are explicit overridable
//    gains, with |H_jam->rec / H_self| ~ -27 dB as measured on the
//    paper's USRP2 prototype (section 5).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "channel/geometry.hpp"
#include "channel/pathloss.hpp"
#include "dsp/rng.hpp"
#include "dsp/types.hpp"

namespace hs::snapshot {
class StateWriter;
}  // namespace hs::snapshot

namespace hs::channel {

using AntennaId = std::size_t;

struct AntennaDesc {
  std::string name;
  Vec2 position{};
  int walls = 0;             ///< walls between this antenna and the cluster
  double body_loss_db = 0;   ///< crossing into/out of the body at this port
  double extra_loss_db = 0;  ///< miscellaneous fixed loss on all its links
};

struct LinkBudgetConfig {
  PathLossModel pathloss{};
  double noise_floor_dbm = -112.0;  ///< kTB over 300 kHz + 7 dB noise figure
  double fcc_limit_dbm = -16.0;     ///< MICS EIRP limit (25 uW)
  double shadowing_sigma_db = 2.5;  ///< per-link log-normal shadowing
  /// Links shorter than this never shadow (rigid co-located cluster).
  double shadowing_min_distance_m = 1.0;
};

class Medium {
 public:
  Medium(double fs, std::size_t block_size, std::uint64_t seed,
         LinkBudgetConfig budget = {});

  /// Sets the medium's trial-start state under a new seed: no antennas,
  /// pair overrides or buffered samples, and a reseeded RNG. The
  /// constructor runs this: construction is a reset. Nodes register
  /// their antennas afterwards in a fixed order, so the per-pair
  /// phase/shadowing draws replay exactly.
  void reset(double fs, std::size_t block_size, std::uint64_t seed,
             const LinkBudgetConfig& budget);

  AntennaId add_antenna(const AntennaDesc& desc);
  const AntennaDesc& antenna(AntennaId id) const { return antennas_.at(id); }

  /// Overrides the directional gain a->b with an exact complex value
  /// (used for H_self and H_jam->rec).
  void set_pair_gain(AntennaId from, AntennaId to, dsp::cplx gain);

  /// Adds a symmetric extra loss on the link a<->b (e.g., the shield's
  /// outward-facing antenna directivity toward the IMD).
  void add_pair_loss(AntennaId a, AntennaId b, double extra_db);

  /// Redraws link phases and shadowing (a new experiment trial).
  void rerandomize();

  /// Two-phase seeding, trial half: reseeds the medium's stream from the
  /// per-trial seed and redraws every link realization from it. Override
  /// gains (H_self, H_jam->rec) and pair losses are calibration, not
  /// randomness — they survive. Construction/warm-up randomness stays on
  /// the warm-up stream, which is what makes the post-warm-up state the
  /// same for every trial (see shield::Deployment::begin_trial).
  void reseed_trial(std::uint64_t trial_seed);

  /// Writes antennas, per-pair channel state, RNG stream position and
  /// the link-budget configuration into a warm-state snapshot. The lazy
  /// per-pair gain caches and the block buffers are not written: gain()
  /// is a pure function of the written fields, and the next mix()
  /// overwrites the buffers.
  void save_state(snapshot::StateWriter& w) const;

  /// Current complex amplitude gain from one antenna to another.
  dsp::cplx gain(AntennaId from, AntennaId to) const;

  /// Deterministic (non-shadowed) path loss in dB between two antennas.
  double nominal_loss_db(AntennaId from, AntennaId to) const;

  // ---- Block interface -------------------------------------------------
  /// Clears all transmit buffers for a new block.
  void begin_block();

  /// Adds `samples` (length <= block_size) to `from`'s transmit buffer for
  /// the current block. Multiple calls accumulate.
  void set_tx(AntennaId from, dsp::SampleView samples);

  /// Split-complex overload: accumulates plane-wise with no layout
  /// conversion (the fast path for SoA producers like the jamming
  /// generator).
  void set_tx(AntennaId from, dsp::SoaView samples);

  /// Superposes all transmissions plus thermal noise at every antenna.
  /// Internally everything runs on split re/im planes so the per-pair
  /// multiply-accumulate and the noise fill autovectorize.
  void mix();

  /// Received samples at `at` for the block just mixed, as the
  /// split-complex planes mix() wrote (no conversion cost).
  dsp::SoaView rx_soa(AntennaId at) const;

  /// Mean received power (linear mW) at `at` for the block just mixed.
  double rx_power(AntennaId at) const;

  double fs() const { return fs_; }
  std::size_t block_size() const { return block_size_; }
  const LinkBudgetConfig& budget() const { return budget_; }

  /// Disables thermal noise (for calibration-style unit tests).
  void set_noise_enabled(bool enabled) { noise_enabled_ = enabled; }

  /// Linear noise power corresponding to the configured floor.
  double noise_power() const;

 private:
  struct PairState {
    std::optional<dsp::cplx> override_gain;
    double extra_loss_db = 0.0;
    dsp::cplx phase{1.0, 0.0};
    double shadow_db = 0.0;
    /// Lazily computed gain() result — the dB-to-amplitude conversion
    /// costs a log10 and a pow per call and mix() asks for every active
    /// pair every block. Pure function of the fields above and the
    /// antenna descriptors, so caching is exact; invalidated whenever
    /// any input changes.
    mutable std::optional<dsp::cplx> cached_gain;
  };

  PairState& pair(AntennaId from, AntennaId to);
  const PairState& pair(AntennaId from, AntennaId to) const;
  void redraw_pair(AntennaId a, AntennaId b);

  // Every member below is set by reset().
  double fs_;
  std::size_t block_size_;
  LinkBudgetConfig budget_;
  dsp::Rng rng_;

  std::vector<AntennaDesc> antennas_;
  std::vector<PairState> pairs_;  // row-major [from][to]
  std::vector<dsp::SoaSamples> tx_;
  std::vector<bool> tx_active_;
  std::vector<dsp::SoaSamples> rx_;
  bool noise_enabled_;
};

}  // namespace hs::channel
