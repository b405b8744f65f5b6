// Calibration routines reproducing section 10.1's micro-benchmarks:
//  * antenna-cancellation measurement (Fig. 7),
//  * b_thresh estimation from shield-vs-IMD decode logs (10.1(c)),
//  * P_thresh: the minimum adversarial RSSI at the shield that elicits an
//    IMD response despite jamming (Table 1).
#pragma once

#include <cstdint>
#include <vector>

#include "shield/deployment.hpp"
#include "shield/trial_context.hpp"

namespace hs::shield {

/// One cancellation measurement: the shield jams with the antidote off,
/// then on, and reports the dB drop in received jamming power at its
/// receive antenna (each run re-probes, so the hardware-error draw — and
/// hence the cancellation — varies run to run as in Fig. 7's CDF).
double measure_cancellation_db(Deployment& deployment);

/// Repeated measurement; returns one sample per run.
std::vector<double> measure_cancellation_cdf(Deployment& deployment,
                                             std::size_t runs);

struct PthreshResult {
  double min_dbm = 0.0;
  double mean_dbm = 0.0;
  double stddev_db = 0.0;
  std::size_t successes = 0;
  std::vector<double> success_rssi_dbm;  ///< per successful packet
};

/// Sweeps an adversary's transmit power at the given testbed location and
/// records the RSSI (at the shield) of every packet that triggered an IMD
/// response despite active jamming (Table 1's methodology). With a
/// TrialContext the deployment is drawn from the pool (bit-identical,
/// cheaper); without one it is built fresh.
PthreshResult measure_pthresh(std::uint64_t seed, int location_index,
                              double power_lo_dbm, double power_hi_dbm,
                              double power_step_db,
                              std::size_t packets_per_power,
                              TrialContext* context = nullptr);

struct BthreshResult {
  std::size_t packets_sent = 0;
  std::size_t shield_error_imd_ok = 0;  ///< errored at shield, accepted by IMD
  std::size_t max_header_bit_flips = 0;
  std::size_t recommended_bthresh = 4;
};

/// Reproduces the b_thresh calibration of 10.1(c): adversarial packets are
/// sent with the shield only LOGGING (jamming off); offline we count the
/// packets that showed header bit errors at the shield yet still triggered
/// the IMD.
BthreshResult estimate_bthresh(std::uint64_t seed, std::size_t packets);

}  // namespace hs::shield
