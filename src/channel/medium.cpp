#include "channel/medium.hpp"

#include <cmath>
#include <stdexcept>

#include "dsp/kernels.hpp"
#include "dsp/units.hpp"
#include "obs/metrics.hpp"
#include "snapshot/state_io.hpp"

namespace hs::channel {

using dsp::cplx;

Medium::Medium(double fs, std::size_t block_size, std::uint64_t seed,
               LinkBudgetConfig budget)
    : fs_(fs),
      block_size_(block_size),
      budget_(budget),
      rng_(seed, "medium") {
  if (fs_ <= 0 || block_size_ == 0) {
    throw std::invalid_argument("Medium: invalid fs/block size");
  }
}

void Medium::reset(double fs, std::size_t block_size, std::uint64_t seed,
                   const LinkBudgetConfig& budget) {
  if (fs <= 0 || block_size == 0) {
    throw std::invalid_argument("Medium::reset: invalid fs/block size");
  }
  fs_ = fs;
  block_size_ = block_size;
  budget_ = budget;
  rng_ = dsp::Rng(seed, "medium");
  antennas_.clear();
  pairs_.clear();
  tx_.clear();
  tx_active_.clear();
  rx_.clear();
  rx_aos_.clear();
  rx_aos_valid_.clear();
  noise_enabled_ = true;
}

AntennaId Medium::add_antenna(const AntennaDesc& desc) {
  const AntennaId id = antennas_.size();
  antennas_.push_back(desc);
  tx_.emplace_back(block_size_);
  tx_active_.push_back(false);
  rx_.emplace_back(block_size_);
  rx_aos_.emplace_back();
  rx_aos_valid_.push_back(false);

  // Grow the pair matrix to (n+1)^2, preserving existing entries.
  const std::size_t n = antennas_.size();
  std::vector<PairState> grown(n * n);
  for (std::size_t f = 0; f + 1 < n; ++f) {
    for (std::size_t t = 0; t + 1 < n; ++t) {
      grown[f * n + t] = pairs_[f * (n - 1) + t];
    }
  }
  pairs_ = std::move(grown);

  // Draw initial phase/shadowing for links touching the new antenna.
  for (AntennaId other = 0; other < id; ++other) redraw_pair(other, id);
  return id;
}

Medium::PairState& Medium::pair(AntennaId from, AntennaId to) {
  return pairs_.at(from * antennas_.size() + to);
}

const Medium::PairState& Medium::pair(AntennaId from, AntennaId to) const {
  return pairs_.at(from * antennas_.size() + to);
}

void Medium::redraw_pair(AntennaId a, AntennaId b) {
  const double d = distance(antennas_[a].position, antennas_[b].position);
  const cplx phase = rng_.random_phase();
  double shadow = 0.0;
  if (d >= budget_.shadowing_min_distance_m &&
      budget_.shadowing_sigma_db > 0.0) {
    shadow = rng_.gaussian(0.0, budget_.shadowing_sigma_db);
  }
  // Reciprocal channel: same draw in both directions.
  pair(a, b).phase = phase;
  pair(a, b).shadow_db = shadow;
  pair(a, b).cached_gain.reset();
  pair(b, a).phase = phase;
  pair(b, a).shadow_db = shadow;
  pair(b, a).cached_gain.reset();
}

void Medium::set_pair_gain(AntennaId from, AntennaId to, cplx gain) {
  pair(from, to).override_gain = gain;
  pair(from, to).cached_gain.reset();
}

void Medium::add_pair_loss(AntennaId a, AntennaId b, double extra_db) {
  pair(a, b).extra_loss_db += extra_db;
  pair(a, b).cached_gain.reset();
  pair(b, a).extra_loss_db += extra_db;
  pair(b, a).cached_gain.reset();
}

void Medium::rerandomize() {
  for (AntennaId a = 0; a < antennas_.size(); ++a) {
    for (AntennaId b = a + 1; b < antennas_.size(); ++b) {
      redraw_pair(a, b);
    }
  }
}

void Medium::reseed_trial(std::uint64_t trial_seed) {
  rng_ = dsp::Rng(trial_seed, "medium");
  rerandomize();
}

void Medium::save_state(snapshot::StateWriter& w) const {
  w.begin("medium");
  w.f64("fs", fs_);
  w.u64("block_size", block_size_);
  w.f64("pathloss.carrier_hz", budget_.pathloss.carrier_hz);
  w.f64("pathloss.exponent", budget_.pathloss.exponent);
  w.f64("pathloss.wall_loss_db", budget_.pathloss.wall_loss_db);
  w.f64("pathloss.reference_m", budget_.pathloss.reference_m);
  w.f64("pathloss.min_distance_m", budget_.pathloss.min_distance_m);
  w.f64("noise_floor_dbm", budget_.noise_floor_dbm);
  w.f64("fcc_limit_dbm", budget_.fcc_limit_dbm);
  w.f64("shadowing_sigma_db", budget_.shadowing_sigma_db);
  w.f64("shadowing_min_distance_m", budget_.shadowing_min_distance_m);
  snapshot::write_rng(w, "rng", rng_);
  w.boolean("noise_enabled", noise_enabled_);
  w.u64("antennas", antennas_.size());
  for (const AntennaDesc& a : antennas_) {
    w.str("name", a.name);
    w.f64("x", a.position.x);
    w.f64("y", a.position.y);
    w.u64("walls", static_cast<std::uint64_t>(a.walls));
    w.f64("body_loss_db", a.body_loss_db);
    w.f64("extra_loss_db", a.extra_loss_db);
  }
  for (const PairState& p : pairs_) {
    w.boolean("override", p.override_gain.has_value());
    w.cx("override_gain", p.override_gain.value_or(dsp::cplx{}));
    w.f64("extra_loss_db", p.extra_loss_db);
    w.cx("phase", p.phase);
    w.f64("shadow_db", p.shadow_db);
  }
  w.end("medium");
}

double Medium::nominal_loss_db(AntennaId from, AntennaId to) const {
  const AntennaDesc& f = antennas_.at(from);
  const AntennaDesc& t = antennas_.at(to);
  const double d = distance(f.position, t.position);
  const int walls = f.walls + t.walls;
  return budget_.pathloss.air_loss_db(d, walls) + f.body_loss_db +
         t.body_loss_db + f.extra_loss_db + t.extra_loss_db +
         pair(from, to).extra_loss_db;
}

cplx Medium::gain(AntennaId from, AntennaId to) const {
  const PairState& p = pair(from, to);
  if (p.override_gain) return *p.override_gain;
  if (from == to) return cplx{};  // no implicit self-coupling
  if (!p.cached_gain) {
    const double loss_db = nominal_loss_db(from, to) + p.shadow_db;
    p.cached_gain = dsp::db_to_amplitude(-loss_db) * p.phase;
  }
  return *p.cached_gain;
}

void Medium::begin_block() {
  for (std::size_t i = 0; i < tx_.size(); ++i) {
    if (tx_active_[i]) {
      tx_[i].fill_zero();
      tx_active_[i] = false;
    }
  }
}

void Medium::set_tx(AntennaId from, dsp::SampleView samples) {
  if (samples.size() > block_size_) {
    throw std::invalid_argument("Medium::set_tx: block too large");
  }
  auto& buf = tx_.at(from);
  double* re = buf.re();
  double* im = buf.im();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    re[i] += samples[i].real();
    im[i] += samples[i].imag();
  }
  tx_active_[from] = true;
}

void Medium::set_tx(AntennaId from, dsp::SoaView samples) {
  if (samples.size() > block_size_) {
    throw std::invalid_argument("Medium::set_tx: block too large");
  }
  auto& buf = tx_.at(from);
  double* re = buf.re();
  double* im = buf.im();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    re[i] += samples.re[i];
    im[i] += samples.im[i];
  }
  tx_active_[from] = true;
}

double Medium::noise_power() const {
  return dsp::dbm_to_mw(budget_.noise_floor_dbm);
}

void Medium::mix() {
  obs::ScopedTimer obs_timer(obs::Phase::kMediumMix);
  const double n0 = noise_enabled_ ? noise_power() : 0.0;
  for (AntennaId to = 0; to < antennas_.size(); ++to) {
    auto& out = rx_[to];
    if (n0 > 0.0) {
      rng_.fill_awgn(out.view(), n0);
    } else {
      out.fill_zero();
    }
    double* ore = out.re();
    double* oim = out.im();
    for (AntennaId from = 0; from < antennas_.size(); ++from) {
      if (!tx_active_[from]) continue;
      const cplx g = gain(from, to);
      if (std::norm(g) <= 0.0) continue;
      const double gr = g.real();
      const double gi = g.imag();
      // out[i] += g * in[i] over four contiguous planes; dsp::kernels
      // dispatches to SIMD while staying bit-identical to the original
      // -fcx-limited-range expansion.
      dsp::kernels::cmac(ore, oim, tx_[from].re(), tx_[from].im(), gr, gi,
                         block_size_);
    }
    rx_aos_valid_[to] = false;
  }
}

dsp::SampleView Medium::rx(AntennaId at) const {
  dsp::Samples& aos = rx_aos_.at(at);
  if (!rx_aos_valid_.at(at)) {
    aos.resize(block_size_);
    dsp::to_aos(rx_.at(at).view(), aos);
    rx_aos_valid_[at] = true;
  }
  return aos;
}

dsp::SoaView Medium::rx_soa(AntennaId at) const { return rx_.at(at).view(); }

double Medium::rx_power(AntennaId at) const {
  const auto& x = rx_.at(at);
  const double* re = x.re();
  const double* im = x.im();
  double s = 0.0;
  for (std::size_t i = 0; i < block_size_; ++i) {
    s += re[i] * re[i] + im[i] * im[i];
  }
  return s / static_cast<double>(block_size_);
}

}  // namespace hs::channel
