#include "sim/transmit_scheduler.hpp"

#include <algorithm>

#include "snapshot/state_io.hpp"

namespace hs::sim {

void TransmitScheduler::schedule(std::size_t start, dsp::Samples waveform) {
  if (waveform.empty()) return;
  entries_.push_back({start, std::move(waveform)});
}

bool TransmitScheduler::fill(std::size_t block_start, std::size_t block_size,
                             dsp::Samples& out) {
  bool any = false;
  const std::size_t block_end = block_start + block_size;
  for (auto it = entries_.begin(); it != entries_.end();) {
    const std::size_t w_start = it->start;
    const std::size_t w_end = w_start + it->waveform.size();
    if (w_end <= block_start) {
      it = entries_.erase(it);  // fully in the past
      continue;
    }
    if (w_start < block_end) {
      if (!any) out.assign(block_size, dsp::cplx{});
      any = true;
      const std::size_t from = std::max(w_start, block_start);
      const std::size_t to = std::min(w_end, block_end);
      for (std::size_t s = from; s < to; ++s) {
        out[s - block_start] += it->waveform[s - w_start];
      }
    }
    ++it;
  }
  return any;
}

bool TransmitScheduler::busy_at(std::size_t sample) const {
  for (const auto& e : entries_) {
    if (sample >= e.start && sample < e.start + e.waveform.size()) return true;
  }
  return false;
}

std::size_t TransmitScheduler::busy_until() const {
  std::size_t until = 0;
  for (const auto& e : entries_) {
    until = std::max(until, e.start + e.waveform.size());
  }
  return until;
}

void TransmitScheduler::cancel_all() { entries_.clear(); }

void TransmitScheduler::save_state(snapshot::StateWriter& w) const {
  w.begin("tx-sched");
  w.u64("entries", entries_.size());
  for (const Entry& e : entries_) {
    w.u64("start", e.start);
    w.samples("waveform", e.waveform);
  }
  w.end("tx-sched");
}

void TransmitScheduler::load_state(snapshot::StateReader& r) {
  r.begin("tx-sched");
  const std::uint64_t n = r.u64("entries");
  entries_.clear();
  entries_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    Entry e;
    e.start = r.u64("start");
    e.waveform = r.samples("waveform");
    entries_.push_back(std::move(e));
  }
  r.end("tx-sched");
}

}  // namespace hs::sim
