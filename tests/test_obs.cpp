// Observability subsystem: (1) Metrics.* — counter/timer Report merging
// is associative and commutative (thread-, chunk- and shard-level folds
// all agree), the thread-local WorkerScope attaches/nests/restores
// correctly, and counter and phase names are distinct; (2) Trace.* — recorded
// timelines are well-formed (paired B/E per tid, per-tid monotonic
// timestamps, valid JSON braces) and campaign runs populate them;
// (3) ObsCampaign.* — the end-to-end guarantees: metrics-on and
// metrics-off runs produce byte-identical canonical reports across
// presets, the chunk-stream metrics trailer round-trips byte-stably and
// aggregates across K shards as the sum of the parts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "campaign/chunk_stream.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "phy/crc.hpp"

namespace hs::obs {
namespace {

Report sample_report(std::uint64_t base) {
  Report r;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    r.counters[i] = base * (i + 1);
  }
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    r.phases[i].calls = base + i;
    r.phases[i].ns = base * 1000 + i;
  }
  return r;
}

TEST(Metrics, ReportMergeIsAssociativeAndCommutative) {
  const Report a = sample_report(3);
  const Report b = sample_report(17);
  const Report c = sample_report(101);

  Report ab_c = a;
  ab_c.merge(b);
  ab_c.merge(c);

  Report a_bc = b;  // (b+c)+a
  a_bc.merge(c);
  a_bc.merge(a);

  Report cba = c;
  cba.merge(b);
  cba.merge(a);

  EXPECT_EQ(ab_c, a_bc);
  EXPECT_EQ(ab_c, cba);

  // Identity: merging an empty report changes nothing.
  Report with_zero = a;
  with_zero.merge(Report{});
  EXPECT_EQ(with_zero, a);
  EXPECT_TRUE(Report{}.empty());
  EXPECT_FALSE(a.empty());
}

TEST(Metrics, NamesAreDistinct) {
  // Reports key counters and phases by name, so no two may share one.
  std::set<std::string_view> counters;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const std::string_view name = counter_name(static_cast<Counter>(i));
    EXPECT_FALSE(name.empty());
    EXPECT_TRUE(counters.insert(name).second) << name;
  }
  std::set<std::string_view> phases;
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const std::string_view name = phase_name(static_cast<Phase>(i));
    EXPECT_FALSE(name.empty());
    EXPECT_TRUE(phases.insert(name).second) << name;
  }
}

TEST(Metrics, WorkerScopeAccumulatesAndRestoresOnNesting) {
  // Detached thread: every instrumentation site is a no-op.
  EXPECT_EQ(tls(), nullptr);
  count(Counter::kTrials, 5);  // must not crash

  MetricsRegistry outer_registry(true);
  {
    WorkerScope outer(&outer_registry, nullptr, "outer");
    ASSERT_NE(tls(), nullptr);
    count(Counter::kTrials, 2);
    { ScopedTimer t(Phase::kTrial); }

    MetricsRegistry inner_registry(false);
    {
      WorkerScope inner(&inner_registry, nullptr, "inner");
      count(Counter::kChunks, 7);
      // Timers disabled on the inner registry: no clock, no phase entry.
      { ScopedTimer t(Phase::kWarmup); }
    }
    // Inner scope destroyed: its block went to inner_registry and the
    // outer attachment is restored.
    const Report inner_report = inner_registry.report();
    EXPECT_EQ(inner_report.counter(Counter::kChunks), 7u);
    EXPECT_EQ(inner_report.counter(Counter::kTrials), 0u);
    EXPECT_EQ(inner_report.phase(Phase::kWarmup).calls, 0u);
    EXPECT_EQ(inner_report.phase(Phase::kWarmup).ns, 0u);
    count(Counter::kTrials, 1);
  }
  EXPECT_EQ(tls(), nullptr);

  const Report outer_report = outer_registry.report();
  EXPECT_EQ(outer_report.counter(Counter::kTrials), 3u);
  EXPECT_EQ(outer_report.counter(Counter::kChunks), 0u);
  EXPECT_EQ(outer_report.phase(Phase::kTrial).calls, 1u);
}

TEST(Trace, EventsArePairedAndMonotonicPerTid) {
  TraceRecorder recorder(0);
  MetricsRegistry registry(false);
  {
    WorkerScope scope(&registry, &recorder, "test-thread");
    {
      TraceSpan outer("cat", "outer", "{\"k\":1}");
      { TraceSpan inner("cat", "inner"); }
      trace_instant("mark", "tick");
    }
    scope.flush();
  }

  const auto events = recorder.events();
  // thread_name metadata + B/E outer + B/E inner + instant.
  ASSERT_EQ(events.size(), 6u);
  EXPECT_EQ(events[0].phase, 'M');
  EXPECT_EQ(events[0].name, "thread_name");

  std::map<std::uint32_t, std::vector<const TraceEvent*>> by_tid;
  for (const auto& e : events) {
    if (e.phase != 'M') by_tid[e.tid].push_back(&e);
  }
  for (const auto& [tid, evs] : by_tid) {
    std::uint64_t last_ts = 0;
    int depth = 0;
    for (const TraceEvent* e : evs) {
      EXPECT_GE(e->ts_ns, last_ts) << "non-monotonic ts on tid " << tid;
      last_ts = e->ts_ns;
      if (e->phase == 'B') ++depth;
      if (e->phase == 'E') {
        --depth;
        EXPECT_GE(depth, 0) << "E without matching B on tid " << tid;
      }
    }
    EXPECT_EQ(depth, 0) << "unclosed span on tid " << tid;
  }

  const std::string json = recorder.to_json();
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
}

}  // namespace
}  // namespace hs::obs

namespace hs::campaign {
namespace {

Scenario shrunk(const char* preset, std::vector<double> axis_values,
                std::size_t units_per_trial) {
  const Scenario* s = find_scenario(preset);
  EXPECT_NE(s, nullptr) << preset;
  Scenario out = *s;
  if (!axis_values.empty()) out.axis_values = std::move(axis_values);
  out.units_per_trial = units_per_trial;
  return out;
}

/// Recomputes the crc field of the line containing `at`, so a forgery
/// reaches the semantic checks instead of dying at the CRC.
std::string reseal_containing_line(std::string text, std::size_t at) {
  const std::size_t begin = text.rfind('\n', at) + 1;
  std::size_t end = text.find('\n', at);
  if (end == std::string::npos) end = text.size();
  const std::size_t crc_at = text.rfind(",\"crc\":\"", end);
  EXPECT_NE(crc_at, std::string::npos);
  EXPECT_GE(crc_at, begin);
  phy::Crc16 crc;
  for (std::size_t i = begin; i < crc_at; ++i) {
    crc.update(static_cast<std::uint8_t>(text[i]));
  }
  crc.update(static_cast<std::uint8_t>('}'));
  char buf[24];
  std::snprintf(buf, sizeof buf, ",\"crc\":\"%04x\"}", crc.value());
  text.replace(crc_at, end - crc_at, buf);
  return text;
}

TEST(ObsCampaign, MetricsOnAndOffReportsAreByteIdentical) {
  // The acceptance gate: canonical CSV/JSON must not change by a byte
  // whether counters/timers/tracing are on or off, across experiment
  // kinds (pure DSP, eavesdrop, active attack).
  struct Case {
    const char* preset;
    std::vector<double> axis_values;
  };
  const std::vector<Case> cases = {
      {"fig5-jam-shaped", {}},
      {"fig8-tradeoff", {10.0, 20.0}},
      {"fig11-trigger", {1.0, 9.0}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.preset);
    const Scenario s = shrunk(c.preset, c.axis_values, 1);
    CampaignOptions plain;
    plain.seed = 11;
    plain.threads = 2;
    plain.trials_per_point = 3;

    CampaignOptions instrumented = plain;
    instrumented.metrics_timers = true;
    obs::TraceRecorder recorder(0);
    instrumented.trace = &recorder;

    auto off = run_campaign(s, plain);
    auto on = run_campaign(s, instrumented);
    canonicalize(off);
    canonicalize(on);
    EXPECT_EQ(to_csv(off), to_csv(on));
    EXPECT_EQ(to_json(off), to_json(on));

    // The instrumented run actually collected something.
    EXPECT_GT(on.metrics.counter(obs::Counter::kTrials), 0u);
    EXPECT_GT(on.metrics.counter(obs::Counter::kChunks), 0u);
    EXPECT_GT(on.metrics.phase(obs::Phase::kTrial).calls, 0u);
    EXPECT_GT(on.metrics.phase(obs::Phase::kTrial).ns, 0u);
    EXPECT_FALSE(recorder.events().empty());
    // The uninstrumented run still counted (counters are always on) but
    // never read the clock.
    EXPECT_GT(off.metrics.counter(obs::Counter::kTrials), 0u);
    EXPECT_EQ(off.metrics.phase(obs::Phase::kTrial).ns, 0u);
  }
}

TEST(ObsCampaign, TrailerRoundTripsByteStably) {
  const Scenario s = shrunk("fig5-jam-shaped", {}, 1);
  CampaignOptions opt;
  opt.seed = 3;
  opt.threads = 1;
  opt.trials_per_point = 4;
  const auto exec = run_campaign_shard(s, opt, 1, 0);
  const std::string text = serialize_chunk_stream(s, opt, exec);

  // Parse -> reserialize from the parsed data must reproduce the trailer
  // byte-for-byte (serialization is a pure function of the execution).
  const ChunkStream stream = parse_chunk_stream(text, "trailer-rt");
  EXPECT_EQ(stream.trailer.version, obs::kMetricsVersion);
  EXPECT_EQ(stream.trailer.threads, exec.threads);
  EXPECT_EQ(stream.trailer.report, exec.metrics);
  EXPECT_EQ(text, serialize_chunk_stream(s, opt, exec));

  // A rebuilt execution carrying the parsed trailer serializes the same
  // trailer line again: the trailer is lossless.
  ShardExecution copy = exec;
  copy.metrics = stream.trailer.report;
  copy.threads = stream.trailer.threads;
  copy.wall_seconds =
      static_cast<double>(stream.trailer.wall_ns) / 1e9;
  const std::string again = serialize_chunk_stream(s, opt, copy);
  const std::size_t tpos = text.rfind("{\"trailer\"");
  const std::size_t apos = again.rfind("{\"trailer\"");
  ASSERT_NE(tpos, std::string::npos);
  ASSERT_NE(apos, std::string::npos);
  EXPECT_EQ(text.substr(0, tpos), again.substr(0, apos));
}

TEST(ObsCampaign, MergeAggregatesShardTrailers) {
  const Scenario s = shrunk("fig4-fsk-profile", {}, 1);
  CampaignOptions opt;
  opt.seed = 9;
  opt.threads = 1;
  opt.trials_per_point = 6;

  std::vector<ChunkStream> streams;
  obs::Report expected;
  unsigned expected_threads = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    const auto exec = run_campaign_shard(s, opt, 3, i);
    expected.merge(exec.metrics);
    expected_threads += exec.threads;
    streams.push_back(
        parse_chunk_stream(serialize_chunk_stream(s, opt, exec),
                           "shard-" + std::to_string(i)));
  }

  MergedMetrics merged;
  const auto result = merge_chunk_streams(s, streams, &merged);
  EXPECT_EQ(merged.shards, 3u);
  EXPECT_EQ(merged.threads, expected_threads);
  EXPECT_EQ(merged.report, expected);
  EXPECT_EQ(result.total_trials, merged.report.counter(obs::Counter::kTrials));

  // Shard order must not matter (integer addition commutes).
  std::vector<ChunkStream> reversed(streams.rbegin(), streams.rend());
  MergedMetrics merged_rev;
  merge_chunk_streams(s, reversed, &merged_rev);
  EXPECT_EQ(merged_rev.report, merged.report);
}

TEST(ObsCampaign, MetricsJsonWellFormedAndVersioned) {
  const Scenario s = shrunk("fig5-jam-shaped", {}, 1);
  CampaignOptions opt;
  opt.seed = 5;
  opt.threads = 1;
  opt.trials_per_point = 2;
  opt.metrics_timers = true;
  const auto result = run_campaign(s, opt);

  const std::string doc = metrics_report_json(
      s.name, opt.seed, 1, result.options.threads, result.wall_seconds,
      result.metrics);
  EXPECT_NE(doc.find("\"format\": \"hs-metrics\""), std::string::npos);
  EXPECT_NE(doc.find("\"version\": 3"), std::string::npos);
  EXPECT_NE(doc.find("\"counters\""), std::string::npos);
  EXPECT_NE(doc.find("\"phases\""), std::string::npos);
  // Every counter and phase name appears.
  for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
    std::string quoted("\"");
    quoted += obs::counter_name(static_cast<obs::Counter>(i));
    quoted += '"';
    EXPECT_NE(doc.find(quoted), std::string::npos) << quoted;
  }
  for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
    std::string quoted("\"");
    quoted += obs::phase_name(static_cast<obs::Phase>(i));
    quoted += '"';
    EXPECT_NE(doc.find(quoted), std::string::npos) << quoted;
  }
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '{'),
            std::count(doc.begin(), doc.end(), '}'));
}

TEST(ObsCampaign, TruncatedTrailerIsRejected) {
  const Scenario s = shrunk("fig5-jam-shaped", {}, 1);
  CampaignOptions opt;
  opt.seed = 3;
  opt.threads = 1;
  opt.trials_per_point = 3;
  const std::string text = serialize_chunk_stream(
      s, opt, run_campaign_shard(s, opt, 1, 0));

  // Drop the trailer line entirely: line count no longer matches.
  const std::size_t tpos = text.rfind("{\"trailer\"");
  ASSERT_NE(tpos, std::string::npos);
  EXPECT_THROW(parse_chunk_stream(text.substr(0, tpos), "no-trailer"),
               ChunkStreamError);

  // Corrupt the trailer version (resealed, so the version check — not
  // the CRC — does the rejecting).
  std::string forged = text;
  const std::size_t vpos = forged.find("\"version\":3", tpos);
  ASSERT_NE(vpos, std::string::npos);
  forged.replace(vpos, 11, "\"version\":9");
  forged = reseal_containing_line(std::move(forged), vpos);
  EXPECT_THROW(parse_chunk_stream(forged, "bad-trailer-version"),
               ChunkStreamError);
}

}  // namespace
}  // namespace hs::campaign
