#include "imd/battery.hpp"

#include <algorithm>

#include "snapshot/state_io.hpp"

namespace hs::imd {

Battery::Battery(double capacity_mj, double tx_power_mw, double idle_power_mw)
    : capacity_mj_(capacity_mj),
      tx_power_mw_(tx_power_mw),
      idle_power_mw_(idle_power_mw),
      remaining_mj_(capacity_mj) {}

void Battery::drain_tx(double seconds) {
  const double spent = tx_power_mw_ * seconds;
  tx_spent_mj_ += spent;
  remaining_mj_ = std::max(0.0, remaining_mj_ - spent);
}

void Battery::drain_idle(double seconds) {
  remaining_mj_ = std::max(0.0, remaining_mj_ - idle_power_mw_ * seconds);
}

void Battery::save_state(snapshot::StateWriter& w) const {
  w.begin("battery");
  w.f64("capacity_mj", capacity_mj_);
  w.f64("tx_power_mw", tx_power_mw_);
  w.f64("idle_power_mw", idle_power_mw_);
  w.f64("remaining_mj", remaining_mj_);
  w.f64("tx_spent_mj", tx_spent_mj_);
  w.end("battery");
}

}  // namespace hs::imd
