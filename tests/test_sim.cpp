#include <gtest/gtest.h>

#include "channel/medium.hpp"
#include "sim/timeline.hpp"
#include "sim/trace.hpp"
#include "sim/transmit_scheduler.hpp"

namespace hs::sim {
namespace {

TEST(TransmitScheduler, FillSlicesAcrossBlocks) {
  TransmitScheduler sched;
  dsp::Samples wave(10);
  for (std::size_t i = 0; i < wave.size(); ++i) {
    wave[i] = {static_cast<double>(i + 1), 0.0};
  }
  sched.schedule(5, wave);  // occupies samples [5, 15)
  dsp::Samples block;
  EXPECT_TRUE(sched.fill(0, 8, block));  // block [0, 8): samples 5,6,7
  EXPECT_EQ(block[4], dsp::cplx{});
  EXPECT_EQ(block[5].real(), 1.0);
  EXPECT_EQ(block[7].real(), 3.0);
  EXPECT_TRUE(sched.fill(8, 8, block));  // block [8, 16): rest
  EXPECT_EQ(block[0].real(), 4.0);
  EXPECT_EQ(block[6].real(), 10.0);
  EXPECT_EQ(block[7], dsp::cplx{});
  EXPECT_FALSE(sched.fill(16, 8, block));  // done & expired
  EXPECT_TRUE(sched.empty());
}

TEST(TransmitScheduler, OverlappingWaveformsSuperpose) {
  TransmitScheduler sched;
  sched.schedule(0, dsp::Samples(4, dsp::cplx{1.0, 0.0}));
  sched.schedule(2, dsp::Samples(4, dsp::cplx{0.0, 1.0}));
  dsp::Samples block;
  sched.fill(0, 8, block);
  EXPECT_EQ(block[1], (dsp::cplx{1.0, 0.0}));
  EXPECT_EQ(block[2], (dsp::cplx{1.0, 1.0}));
  EXPECT_EQ(block[5], (dsp::cplx{0.0, 1.0}));
  EXPECT_EQ(block[6], dsp::cplx{});
}

TEST(TransmitScheduler, BusyQueries) {
  TransmitScheduler sched;
  sched.schedule(10, dsp::Samples(5, dsp::cplx{1.0, 0.0}));
  EXPECT_FALSE(sched.busy_at(9));
  EXPECT_TRUE(sched.busy_at(10));
  EXPECT_TRUE(sched.busy_at(14));
  EXPECT_FALSE(sched.busy_at(15));
  EXPECT_EQ(sched.busy_until(), 15u);
}

TEST(TransmitScheduler, CancelAll) {
  TransmitScheduler sched;
  sched.schedule(0, dsp::Samples(100, dsp::cplx{1.0, 0.0}));
  sched.cancel_all();
  dsp::Samples block;
  EXPECT_FALSE(sched.fill(0, 10, block));
  EXPECT_TRUE(sched.empty());
}

TEST(TransmitScheduler, EmptyWaveformIgnored) {
  TransmitScheduler sched;
  sched.schedule(0, {});
  EXPECT_TRUE(sched.empty());
}

TEST(EventLog, RecordFilterCount) {
  EventLog log;
  log.record(0.1, "shield", EventKind::kJamStart, "active");
  log.record(0.2, "imd", EventKind::kFrameReceived, "interrogate");
  log.record(0.3, "shield", EventKind::kJamEnd);
  log.record(0.4, "shield", EventKind::kJamStart, "passive");
  EXPECT_EQ(log.count(EventKind::kJamStart), 2u);
  EXPECT_EQ(log.count(EventKind::kJamStart, "shield"), 2u);
  EXPECT_EQ(log.count(EventKind::kJamStart, "imd"), 0u);
  const auto starts = log.filter(EventKind::kJamStart);
  ASSERT_EQ(starts.size(), 2u);
  EXPECT_EQ(starts[0].detail, "active");
  EXPECT_EQ(starts[1].detail, "passive");
  EXPECT_NE(log.to_string().find("jam-start"), std::string::npos);
  log.clear();
  EXPECT_TRUE(log.events().empty());
}

TEST(EventLog, KindNamesExist) {
  EXPECT_STREQ(event_kind_name(EventKind::kAlarm), "alarm");
  EXPECT_STREQ(event_kind_name(EventKind::kProbe), "probe");
  EXPECT_STREQ(event_kind_name(EventKind::kCommandExecuted),
               "command-executed");
}

/// A node that transmits a known block and reports what it hears; used to
/// verify the produce -> mix -> consume contract (one-block feedback).
class LoopbackProbeNode : public RadioNode {
 public:
  LoopbackProbeNode(channel::Medium& medium, channel::AntennaId peer)
      : peer_(peer) {
    channel::AntennaDesc desc;
    desc.position = {1.0, 0};
    antenna_ = medium.add_antenna(desc);
  }
  void produce(const StepContext& ctx, channel::Medium& medium) override {
    dsp::Samples block(ctx.block_size,
                       dsp::cplx{static_cast<double>(ctx.block_index + 1),
                                 0.0});
    medium.set_tx(antenna_, block);
  }
  void consume(const StepContext&, channel::Medium& medium) override {
    const dsp::SoaView rx = medium.rx_soa(peer_);
    heard_.emplace_back(rx.re[0], rx.im[0]);
  }
  bool quiet() const override { return true; }
  channel::AntennaId antenna() const { return antenna_; }
  std::string_view name() const override { return "loopback"; }
  std::vector<dsp::cplx> heard_;

 private:
  channel::AntennaId antenna_;
  channel::AntennaId peer_;
};

TEST(Timeline, ProduceMixConsumeWithinOneBlock) {
  channel::Medium medium(300e3, 16, 1);
  medium.set_noise_enabled(false);
  channel::AntennaDesc peer_desc;  // receive-only antenna at origin
  const auto peer = medium.add_antenna(peer_desc);
  Timeline timeline(medium);
  LoopbackProbeNode node(medium, peer);
  timeline.add_node(&node);
  timeline.step();
  timeline.step();
  timeline.step();
  // consume(k) sees what produce(k) emitted, scaled by the channel gain.
  const double g = std::abs(medium.gain(node.antenna(), peer));
  ASSERT_EQ(node.heard_.size(), 3u);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_NEAR(std::abs(node.heard_[k]),
                g * static_cast<double>(k + 1), 1e-12);
  }
}

TEST(Timeline, ClockBookkeeping) {
  channel::Medium medium(300e3, 48, 2);
  Timeline timeline(medium);
  EXPECT_EQ(timeline.block_index(), 0u);
  EXPECT_DOUBLE_EQ(timeline.now_s(), 0.0);
  timeline.run_for(1e-3);  // 300 samples => 7 blocks of 48 = 336
  EXPECT_EQ(timeline.block_index(), 7u);
  EXPECT_NEAR(timeline.now_s(), 336.0 / 300e3, 1e-12);
}

TEST(Timeline, RunUntilPredicate) {
  channel::Medium medium(300e3, 48, 3);
  Timeline timeline(medium);
  const bool fired = timeline.run_until(
      [&] { return timeline.block_index() >= 5; }, /*max_seconds=*/1.0);
  EXPECT_TRUE(fired);
  EXPECT_EQ(timeline.block_index(), 5u);
  const bool never = timeline.run_until([] { return false; }, 1e-3);
  EXPECT_FALSE(never);

  // A predicate that never fires runs exactly run_for's blocks from any
  // start block. Comparing a deadline in floating-point seconds instead
  // runs one block more from 77 of these starts at 60 ms (the first at
  // block 237).
  channel::Medium empty(300e3, 48, 4);
  Timeline cursor(empty);
  for (std::size_t start = 0; start < 2000; ++start) {
    for (const double seconds : {1e-3, 2e-3, 45e-3, 60e-3}) {
      Timeline by_for = cursor;
      Timeline by_until = cursor;
      by_for.run_for(seconds);
      EXPECT_FALSE(by_until.run_until([] { return false; }, seconds));
      ASSERT_EQ(by_until.block_index(), by_for.block_index())
          << "start block " << start << ", " << seconds << " s";
    }
    cursor.step();
  }
}

TEST(StepContext, DerivedQuantities) {
  StepContext ctx;
  ctx.block_index = 10;
  ctx.block_size = 48;
  ctx.fs = 300e3;
  EXPECT_EQ(ctx.block_start_sample(), 480u);
  EXPECT_NEAR(ctx.block_start_s(), 480.0 / 300e3, 1e-15);
  EXPECT_NEAR(ctx.sample_duration_s(), 1.0 / 300e3, 1e-18);
}

}  // namespace
}  // namespace hs::sim
