// All shield parameters in one place, with the paper's calibrated values
// as defaults (sections 6, 7 and 10.1).
#pragma once

#include <cstddef>
#include <cstdint>

#include "phy/frame.hpp"
#include "phy/fsk.hpp"
#include "shield/jamgen.hpp"

namespace hs::shield {

struct ShieldConfig {
  /// Serial number of the IMD this shield protects.
  phy::DeviceId protected_id{};

  phy::FskParams fsk{};

  // ---- Passive-protection timing (section 6; calibrated per IMD) -------
  double t1_s = 2.8e-3;          ///< earliest reply start after a command
  double t2_s = 3.7e-3;          ///< latest reply start
  double max_packet_s = 21e-3;   ///< P, the IMD's longest packet

  // ---- Power --------------------------------------------------------
  double max_tx_power_dbm = -16.0;  ///< FCC MICS EIRP limit
  /// Jam this many dB above the IMD power measured at the shield
  /// (20 dB is the paper's operating point, Fig. 8).
  double jam_margin_db = 20.0;
  /// Assumed IMD RSSI before the first decoded reply provides a
  /// measurement.
  double initial_imd_rssi_dbm = -36.0;

  // ---- Active protection (section 7) ----------------------------------
  bool enable_active_protection = true;
  std::size_t bthresh = 4;         ///< S_id bit-flip tolerance (10.1(c))
  /// Alarm threshold: 3 dB below the minimum adversarial RSSI that can
  /// elicit an IMD response despite jamming, per Table 1's methodology
  /// (regenerate with the table1-pthresh preset; our field-referenced dBm
  /// scale differs from the paper's USRP-referenced readings by a fixed
  /// gain).
  double pthresh_dbm = -19.0;
  bool alarm_enabled = true;
  std::size_t min_active_jam_blocks = 4;  ///< guarantee corruption coverage
  std::size_t idle_confirm_blocks = 1;    ///< quiet blocks before unjamming
  double idle_factor = 4.0;               ///< power factor over floor = busy
  /// Conservative cancellation assumed when predicting the shield's own
  /// jamming/self-interference residuals for thresholds.
  double nominal_cancellation_db = 26.0;

  // ---- Passive protection ---------------------------------------------
  bool enable_passive_jamming = true;

  // ---- Antidote / channel estimation (section 5) -----------------------
  double probe_interval_s = 0.2;     ///< re-probe cadence when idle
  double probe_power_dbm = -46.0;    ///< low power for spatial reuse
  std::size_t probe_length = 96;     ///< samples per probe
  /// Analog accuracy of the antidote path; 2.5% gives the ~32 dB mean
  /// cancellation of Fig. 7.
  double hardware_error_sigma = 0.025;

  // ---- Hardware couplings (fixed device characteristics) ---------------
  double self_coupling_db = 3.0;      ///< |H_self| wire loss
  double jam_rec_coupling_db = 30.0;  ///< |H_jam->rec| antenna coupling
                                      ///< (ratio -27 dB, as in section 5)

  // ---- Jamming signal ---------------------------------------------------
  JamProfile jam_profile = JamProfile::kShaped;
  std::size_t jam_fft_size = 256;
};

struct ShieldStats {
  std::size_t commands_relayed = 0;
  std::size_t replies_decoded = 0;   ///< IMD frames decoded while jamming
  std::size_t reply_crc_failures = 0;
  std::size_t passive_jams = 0;      ///< reply windows jammed
  std::size_t active_jams = 0;       ///< unauthorized packets jammed
  std::size_t alarms = 0;
  std::size_t aborted_tx = 0;        ///< own tx aborted -> jam (capture def.)
  std::size_t probes = 0;
  std::size_t cross_traffic_ignored = 0;  ///< locks dropped, no S_id match
};

}  // namespace hs::shield
