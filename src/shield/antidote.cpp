#include "shield/antidote.hpp"

#include <stdexcept>

#include "snapshot/state_io.hpp"

namespace hs::shield {

using dsp::cplx;

AntidoteController::AntidoteController(double hardware_error_sigma,
                                       std::uint64_t seed)
    : sigma_(hardware_error_sigma), rng_(seed, "antidote") {
  begin_epoch();
}

void AntidoteController::update_jam_channel(cplx h) { h_jam_to_rec_ = h; }

void AntidoteController::update_self_channel(cplx h) { h_self_ = h; }

void AntidoteController::begin_epoch() {
  hardware_error_ = rng_.cgaussian(sigma_ * sigma_);
}

cplx AntidoteController::ideal_coefficient() const {
  if (!ready()) throw std::logic_error("antidote: channels not estimated");
  return -(*h_jam_to_rec_) / (*h_self_);
}

cplx AntidoteController::antidote_coefficient() const {
  return ideal_coefficient() * (cplx(1.0, 0.0) + hardware_error_);
}

cplx AntidoteController::self_channel() const {
  if (!h_self_) throw std::logic_error("antidote: no self estimate");
  return *h_self_;
}

void AntidoteController::reset() {
  h_jam_to_rec_.reset();
  h_self_.reset();
  begin_epoch();
}

void AntidoteController::reseed(std::uint64_t trial_seed) {
  rng_ = dsp::Rng(trial_seed, "antidote");
}

void AntidoteController::save_state(snapshot::StateWriter& w) const {
  w.begin("antidote");
  w.f64("sigma", sigma_);
  snapshot::write_rng(w, "rng", rng_);
  w.boolean("have_jam", h_jam_to_rec_.has_value());
  w.cx("h_jam", h_jam_to_rec_.value_or(dsp::cplx{}));
  w.boolean("have_self", h_self_.has_value());
  w.cx("h_self", h_self_.value_or(dsp::cplx{}));
  w.cx("hardware_error", hardware_error_);
  w.end("antidote");
}

void AntidoteController::load_state(snapshot::StateReader& r) {
  r.begin("antidote");
  sigma_ = r.f64("sigma");
  snapshot::read_rng(r, "rng", rng_);
  const bool have_jam = r.boolean("have_jam");
  const dsp::cplx h_jam = r.cx("h_jam");
  h_jam_to_rec_ = have_jam ? std::optional<dsp::cplx>(h_jam) : std::nullopt;
  const bool have_self = r.boolean("have_self");
  const dsp::cplx h_self = r.cx("h_self");
  h_self_ = have_self ? std::optional<dsp::cplx>(h_self) : std::nullopt;
  hardware_error_ = r.cx("hardware_error");
  r.end("antidote");
}

dsp::Samples make_probe_waveform(std::size_t length, std::uint64_t seed) {
  dsp::Rng rng(seed, "probe");
  dsp::Samples probe(length);
  // QPSK-like PN probe: constant envelope, flat-ish spectrum.
  static const cplx kSymbols[4] = {
      {0.7071067811865476, 0.7071067811865476},
      {-0.7071067811865476, 0.7071067811865476},
      {-0.7071067811865476, -0.7071067811865476},
      {0.7071067811865476, -0.7071067811865476},
  };
  for (auto& x : probe) x = kSymbols[rng.next_u64() & 3];
  return probe;
}

}  // namespace hs::shield
