// Battery model for a non-rechargeable IMD. The paper's first attack class
// triggers the IMD to transmit "using precious battery energy" (Fig. 11);
// this model quantifies the depletion those attacks cause.
#pragma once

#include <cstddef>

namespace hs::snapshot {
class StateWriter;
}  // namespace hs::snapshot

namespace hs::imd {

class Battery {
 public:
  /// `capacity_mj` total energy in millijoules (default a small fraction
  /// of a real device's ~ 7 kJ so tests can observe depletion).
  /// `tx_power_mw` radio power draw while transmitting.
  explicit Battery(double capacity_mj = 7.0e6, double tx_power_mw = 30.0,
                   double idle_power_mw = 0.01);

  /// Accounts for transmitting for `seconds`.
  void drain_tx(double seconds);

  /// Accounts for `seconds` of baseline operation.
  void drain_idle(double seconds);

  double remaining_mj() const { return remaining_mj_; }
  double capacity_mj() const { return capacity_mj_; }
  double fraction_remaining() const { return remaining_mj_ / capacity_mj_; }
  bool depleted() const { return remaining_mj_ <= 0.0; }

  /// Total energy spent on transmissions (the attack's damage metric).
  double tx_energy_spent_mj() const { return tx_spent_mj_; }

  /// Writes all five energy fields into a warm-state snapshot.
  void save_state(snapshot::StateWriter& w) const;

 private:
  double capacity_mj_;
  double tx_power_mw_;
  double idle_power_mw_;
  double remaining_mj_;
  double tx_spent_mj_ = 0.0;
};

}  // namespace hs::imd
