// Sharded-campaign correctness: (1) ShardMerge.* — K independently-run
// shards, serialized to chunk streams and merged, must reproduce the
// serial single-process aggregates bit-for-bit (EXPECT_EQ on doubles,
// including Welford variance and Wilson intervals) and byte-for-byte in
// CSV/JSON; (2) ChunkStream.* — the wire format round-trips exactly and
// rejects truncation, duplication and header mismatches instead of
// silently merging; (3) WorkerPool.* — the chunk cursor's schedule never
// perturbs aggregates or the deployment-pool accounting, across thread
// counts and many repetitions.
#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "campaign/chunk_stream.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "campaign/shard.hpp"
#include "phy/crc.hpp"

namespace hs::campaign {
namespace {

/// Recomputes line `lineno` (1-based)'s crc field after tampering, so a
/// forgery reaches the semantic checks instead of dying at the CRC.
std::string reseal_line(const std::string& text, std::size_t lineno) {
  std::vector<std::string> ls;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t end = text.find('\n', start);
    ls.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  EXPECT_GE(ls.size(), lineno);
  std::string& line = ls[lineno - 1];
  const std::size_t crc_at = line.rfind(",\"crc\":\"");
  EXPECT_NE(crc_at, std::string::npos);
  std::string payload = line.substr(0, crc_at);
  phy::Crc16 crc;
  for (char c : payload) crc.update(static_cast<std::uint8_t>(c));
  crc.update(static_cast<std::uint8_t>('}'));
  char buf[24];
  std::snprintf(buf, sizeof buf, ",\"crc\":\"%04x\"}", crc.value());
  line = payload + buf;
  std::string out;
  for (const auto& l : ls) {
    out += l;
    out += '\n';
  }
  return out;
}

/// A preset shrunk to a test-sized sweep: the genuine trial code paths,
/// milliseconds per trial.
Scenario shrunk(const char* preset, std::vector<double> axis_values,
                std::size_t units_per_trial) {
  const Scenario* s = find_scenario(preset);
  EXPECT_NE(s, nullptr) << preset;
  Scenario out = *s;
  if (!axis_values.empty()) out.axis_values = std::move(axis_values);
  out.units_per_trial = units_per_trial;
  return out;
}

/// Runs every shard of a K-way split in-process and parses each stream
/// back, mimicking what K separate campaign_runner processes produce.
std::vector<ChunkStream> run_shards(const Scenario& s,
                                    const CampaignOptions& opt,
                                    std::size_t shard_count) {
  std::vector<ChunkStream> streams;
  for (std::size_t i = 0; i < shard_count; ++i) {
    const auto exec = run_campaign_shard(s, opt, shard_count, i);
    streams.push_back(
        parse_chunk_stream(serialize_chunk_stream(s, opt, exec),
                           "shard-" + std::to_string(i)));
  }
  return streams;
}

/// Bit-identical aggregates: every moment EXPECT_EQ, no tolerance —
/// including the derived variance/stddev and the Wilson interval of
/// indicator metrics.
void expect_identical(const CampaignResult& a, const CampaignResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t p = 0; p < a.points.size(); ++p) {
    for (std::size_t m = 0; m < kMetricCount; ++m) {
      const auto& sa = a.points[p].metrics[m];
      const auto& sb = b.points[p].metrics[m];
      EXPECT_EQ(sa.count(), sb.count());
      EXPECT_EQ(sa.mean(), sb.mean());
      EXPECT_EQ(sa.variance(), sb.variance());
      EXPECT_EQ(sa.stddev(), sb.stddev());
      EXPECT_EQ(sa.min(), sb.min());
      EXPECT_EQ(sa.max(), sb.max());
      if (metric_is_indicator(static_cast<Metric>(m))) {
        const auto wa = wilson_interval(sa);
        const auto wb = wilson_interval(sb);
        EXPECT_EQ(wa.lo, wb.lo);
        EXPECT_EQ(wa.hi, wb.hi);
      }
    }
  }
}

TEST(ShardPlan, DealsChunksRoundRobinAndCoversExactly) {
  Scenario s = shrunk("fig8-tradeoff", {10.0, 15.0, 20.0}, 1);
  CampaignOptions opt;
  opt.trials_per_point = 5;
  opt.chunk_size = 2;  // uneven: 5 trials -> chunks of 2,2,1 per point

  std::vector<bool> covered(9, false);
  for (std::size_t i = 0; i < 3; ++i) {
    const ShardPlan plan = plan_shard(s, opt, 3, i);
    EXPECT_EQ(plan.total_chunks, 9u);
    EXPECT_EQ(plan.point_count, 3u);
    EXPECT_EQ(plan.trials_per_point, 5u);
    std::size_t prev_id = 0;
    for (std::size_t c = 0; c < plan.chunks.size(); ++c) {
      const ChunkRef& ref = plan.chunks[c];
      EXPECT_EQ(ref.chunk_index % 3, i);  // round-robin deal
      if (c > 0) {
        EXPECT_GT(ref.chunk_index, prev_id);
      }
      prev_id = ref.chunk_index;
      ASSERT_LT(ref.chunk_index, covered.size());
      EXPECT_FALSE(covered[ref.chunk_index]);
      covered[ref.chunk_index] = true;
      EXPECT_LT(ref.trial_begin, ref.trial_end);
      EXPECT_LE(ref.trial_end, 5u);
    }
  }
  for (bool c : covered) EXPECT_TRUE(c);  // disjoint exact cover

  EXPECT_THROW(plan_shard(s, opt, 0, 0), std::invalid_argument);
  EXPECT_THROW(plan_shard(s, opt, 3, 3), std::invalid_argument);
}

TEST(ShardMerge, BitIdenticalToSerialAcrossPresetsAndShardCounts) {
  // Three experiment families: spectrum (no deployment), eavesdrop
  // (full deployment + sweep), active attack (multi-sample indicators).
  const std::vector<Scenario> cases = {
      shrunk("fig5-jam-shaped", {}, 1),
      shrunk("fig8-tradeoff", {10.0, 20.0}, 1),
      shrunk("fig11-trigger", {1.0, 9.0}, 1),
  };
  for (const Scenario& s : cases) {
    SCOPED_TRACE(s.name);
    CampaignOptions opt;
    opt.seed = 13;
    opt.threads = 1;
    opt.trials_per_point = 4;
    auto serial = run_campaign(s, opt);
    canonicalize(serial);
    const std::string serial_csv = to_csv(serial);
    const std::string serial_json = to_json(serial);

    for (std::size_t shard_count : {2u, 3u, 7u}) {
      SCOPED_TRACE(shard_count);
      const auto merged =
          merge_chunk_streams(s, run_shards(s, opt, shard_count));
      expect_identical(serial, merged);
      // Not just equal aggregates: the emitted reports are the same bytes.
      EXPECT_EQ(serial_csv, to_csv(merged));
      EXPECT_EQ(serial_json, to_json(merged));
    }
  }
}

TEST(ShardMerge, EveryPresetMergesBitIdentical) {
  // The acceptance sweep: every preset in --list, shrunk to at most two
  // sweep points and one unit per trial, K=3 sharded, merged, compared
  // EXPECT_EQ against serial.
  for (const Scenario& preset : scenario_presets()) {
    SCOPED_TRACE(preset.name);
    Scenario s = preset;
    if (s.axis != SweepAxis::kNone && s.axis_values.size() > 2) {
      s.axis_values.resize(2);
    }
    s.units_per_trial = 1;
    CampaignOptions opt;
    opt.seed = 5;
    opt.threads = 1;
    opt.trials_per_point = 2;

    auto serial = run_campaign(s, opt);
    canonicalize(serial);
    const auto merged = merge_chunk_streams(s, run_shards(s, opt, 3));
    expect_identical(serial, merged);
    EXPECT_EQ(to_csv(serial), to_csv(merged));
    EXPECT_EQ(to_json(serial), to_json(merged));
  }
}

TEST(ChunkStream, RoundTripsExactly) {
  const Scenario s = shrunk("fig8-tradeoff", {10.0, 20.0}, 1);
  CampaignOptions opt;
  opt.seed = 21;
  opt.threads = 1;
  opt.trials_per_point = 5;
  opt.chunk_size = 2;  // uneven trailing chunk
  const auto exec = run_campaign_shard(s, opt, 2, 1);
  const std::string text = serialize_chunk_stream(s, opt, exec);
  const ChunkStream stream = parse_chunk_stream(text, "round-trip");

  EXPECT_EQ(stream.header.version, kChunkStreamVersion);
  EXPECT_EQ(stream.header.scenario, s.name);
  EXPECT_EQ(stream.header.seed, 21u);
  EXPECT_EQ(stream.header.trials_per_point, 5u);
  EXPECT_EQ(stream.header.chunk_size, 2u);
  EXPECT_EQ(stream.header.shard_count, 2u);
  EXPECT_EQ(stream.header.shard_index, 1u);
  EXPECT_EQ(stream.header.total_chunks, exec.plan.total_chunks);
  ASSERT_EQ(stream.chunks.size(), exec.plan.chunks.size());
  for (std::size_t c = 0; c < stream.chunks.size(); ++c) {
    EXPECT_EQ(stream.chunks[c].ref, exec.plan.chunks[c]);
    for (std::size_t m = 0; m < kMetricCount; ++m) {
      const auto want = exec.chunk_metrics[c][m].moments();
      const auto got = stream.chunks[c].metrics[m].moments();
      EXPECT_EQ(want.count, got.count);
      // Hex-float round trip: the exact bits, not a decimal approximation.
      EXPECT_EQ(want.mean, got.mean);
      EXPECT_EQ(want.m2, got.m2);
      EXPECT_EQ(want.min, got.min);
      EXPECT_EQ(want.max, got.max);
    }
  }

  // Serialization is deterministic: same execution, same bytes.
  EXPECT_EQ(text, serialize_chunk_stream(s, opt, exec));
}

class ChunkStreamCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    scenario_ = shrunk("fig5-jam-shaped", {}, 1);
    opt_.seed = 3;
    opt_.threads = 1;
    opt_.trials_per_point = 6;
    text_ = serialize_chunk_stream(
        scenario_, opt_, run_campaign_shard(scenario_, opt_, 1, 0));
  }

  std::vector<std::string> lines() const {
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start < text_.size()) {
      const std::size_t end = text_.find('\n', start);
      out.push_back(text_.substr(start, end - start));
      start = end + 1;
    }
    return out;
  }

  static std::string join(const std::vector<std::string>& ls) {
    std::string out;
    for (const auto& l : ls) {
      out += l;
      out += '\n';
    }
    return out;
  }

  Scenario scenario_;
  CampaignOptions opt_;
  std::string text_;
};

TEST_F(ChunkStreamCorruption, RejectsByteTruncation) {
  // Cut mid-line: the final newline disappears.
  EXPECT_THROW(
      parse_chunk_stream(text_.substr(0, text_.size() - 17), "cut"),
      ChunkStreamError);
  // Cut a whole record: line count disagrees with the header's promise.
  auto ls = lines();
  ls.pop_back();
  EXPECT_THROW(parse_chunk_stream(join(ls), "short"), ChunkStreamError);
  // Empty input.
  EXPECT_THROW(parse_chunk_stream("", "empty"), ChunkStreamError);
}

TEST_F(ChunkStreamCorruption, RejectsDuplicateChunkIds) {
  auto ls = lines();
  ASSERT_GE(ls.size(), 3u);
  ls[2] = ls[1];  // same record twice, line count still matches
  EXPECT_THROW(parse_chunk_stream(join(ls), "dup"), ChunkStreamError);
}

TEST_F(ChunkStreamCorruption, RejectsVersionAndFormatMismatch) {
  std::string forged = text_;
  forged.replace(forged.find("\"version\":3"), 11, "\"version\":9");
  forged = reseal_line(forged, 1);
  EXPECT_THROW(parse_chunk_stream(forged, "v9"), ChunkStreamError);

  std::string not_ours = text_;
  not_ours.replace(not_ours.find("hs-chunk-stream"), 15, "something-else-");
  EXPECT_THROW(parse_chunk_stream(not_ours, "alien"), ChunkStreamError);
}

TEST_F(ChunkStreamCorruption, RejectsUppercaseCrcDigits) {
  // The crc field is exactly four lowercase hex digits. Uppercasing a
  // record's crc keeps its value and changes only its spelling, so the
  // digit rule alone must catch it.
  auto ls = lines();
  std::size_t record = 0;
  for (std::size_t i = 1; i + 1 < ls.size() && record == 0; ++i) {
    const std::string crc = ls[i].substr(ls[i].size() - 6, 4);
    if (crc.find_first_of("abcdef") != std::string::npos) record = i;
  }
  ASSERT_NE(record, 0u) << "no record crc contains a hex letter";
  std::string& line = ls[record];
  for (std::size_t k = line.size() - 6; k < line.size() - 2; ++k) {
    line[k] =
        static_cast<char>(std::toupper(static_cast<unsigned char>(line[k])));
  }
  const std::string upper = join(ls);
  EXPECT_THROW(parse_chunk_stream(upper, "upper"), ChunkStreamError);
  const SalvagedStream s = salvage_chunk_stream(upper, "upper");
  EXPECT_FALSE(s.complete);
  EXPECT_EQ(s.chunks.size(), record - 1);
}

TEST_F(ChunkStreamCorruption, ParseErrorIsTheSalvageReason) {
  // parse_chunk_stream is a salvage that throws its truncation reason:
  // the message names the source, and the line when one is at fault,
  // behind a single "chunk-stream:" prefix.
  auto dup = lines();
  dup[2] = dup[1];
  auto flipped = lines();
  flipped[1][12] ^= 0x01;
  auto cut = lines();
  cut.pop_back();
  const struct {
    std::string text;
    const char* prefix;
  } cases[] = {
      {join(dup), "chunk-stream: src line 3: duplicate or out-of-order"},
      {join(flipped), "chunk-stream: src line 2: "},
      {join(cut), "chunk-stream: src: metrics trailer missing"},
      {"", "chunk-stream: src: empty stream"},
  };
  for (const auto& c : cases) {
    const std::string reason =
        salvage_chunk_stream(c.text, "src").truncation_reason;
    try {
      parse_chunk_stream(c.text, "src");
      ADD_FAILURE() << c.prefix << ": parsed";
    } catch (const ChunkStreamError& e) {
      const std::string what = e.what();
      EXPECT_EQ(what, reason);
      EXPECT_EQ(what.rfind(c.prefix, 0), 0u) << what;
      EXPECT_EQ(what.find("chunk-stream:", 1), std::string::npos) << what;
    }
  }
}

TEST_F(ChunkStreamCorruption, MergeRejectsMismatchedStreams) {
  // Seed mismatch across shards.
  CampaignOptions other_seed = opt_;
  other_seed.seed = 4;
  std::vector<ChunkStream> mixed;
  mixed.push_back(parse_chunk_stream(
      serialize_chunk_stream(scenario_, opt_,
                             run_campaign_shard(scenario_, opt_, 2, 0)),
      "a"));
  mixed.push_back(parse_chunk_stream(
      serialize_chunk_stream(scenario_, other_seed,
                             run_campaign_shard(scenario_, other_seed, 2, 1)),
      "b"));
  EXPECT_THROW(merge_chunk_streams(scenario_, mixed), ChunkStreamError);

  // The same shard twice.
  const auto shard0 = parse_chunk_stream(
      serialize_chunk_stream(scenario_, opt_,
                             run_campaign_shard(scenario_, opt_, 2, 0)),
      "a");
  EXPECT_THROW(merge_chunk_streams(scenario_, {shard0, shard0}),
               ChunkStreamError);

  // Fewer streams than the split was planned for.
  EXPECT_THROW(merge_chunk_streams(scenario_, {shard0}), ChunkStreamError);

  // A scenario that is not the one the streams were recorded from.
  const auto whole = parse_chunk_stream(text_, "whole");
  const Scenario* other = find_scenario("fig4-fsk-profile");
  ASSERT_NE(other, nullptr);
  EXPECT_THROW(merge_chunk_streams(*other, {whole}), ChunkStreamError);

  // The right preset name but different sweep geometry (trial count):
  // the recomputed plan disagrees with the recorded chunks.
  CampaignOptions fatter = opt_;
  fatter.trials_per_point = 12;
  const auto fat = parse_chunk_stream(
      serialize_chunk_stream(scenario_, fatter,
                             run_campaign_shard(scenario_, fatter, 2, 0)),
      "fat");
  const auto thin = parse_chunk_stream(
      serialize_chunk_stream(scenario_, opt_,
                             run_campaign_shard(scenario_, opt_, 2, 1)),
      "thin");
  EXPECT_THROW(merge_chunk_streams(scenario_, {fat, thin}),
               ChunkStreamError);

  // Nothing at all.
  EXPECT_THROW(merge_chunk_streams(scenario_, {}), ChunkStreamError);
}

TEST_F(ChunkStreamCorruption, SalvageOfCompleteStreamEqualsStrictParse) {
  const ChunkStream strict = parse_chunk_stream(text_, "strict");
  const SalvagedStream s = salvage_chunk_stream(text_, "salvage");
  EXPECT_TRUE(s.header_valid);
  EXPECT_TRUE(s.complete);
  EXPECT_TRUE(s.truncation_reason.empty());
  EXPECT_EQ(s.header.chunk_count, strict.header.chunk_count);
  EXPECT_EQ(s.header.seed, strict.header.seed);
  ASSERT_EQ(s.chunks.size(), strict.chunks.size());
  for (std::size_t c = 0; c < s.chunks.size(); ++c) {
    EXPECT_EQ(s.chunks[c].ref, strict.chunks[c].ref);
  }
  EXPECT_EQ(s.trailer.threads, strict.trailer.threads);
  EXPECT_EQ(s.trailer.report, strict.trailer.report);
}

/// The salvage prefix property every recovery path leans on: whatever
/// salvage accepts is bit-equal to a prefix of the intact stream's
/// records — never a record the strict parser would reject, never a
/// reordered or altered one.
void expect_valid_prefix(const SalvagedStream& s, const ChunkStream& full) {
  ASSERT_LE(s.chunks.size(), full.chunks.size());
  for (std::size_t c = 0; c < s.chunks.size(); ++c) {
    ASSERT_EQ(s.chunks[c].ref, full.chunks[c].ref);
    for (std::size_t m = 0; m < kMetricCount; ++m) {
      const auto want = full.chunks[c].metrics[m].moments();
      const auto got = s.chunks[c].metrics[m].moments();
      ASSERT_EQ(want.count, got.count);
      ASSERT_EQ(want.mean, got.mean);
      ASSERT_EQ(want.m2, got.m2);
      ASSERT_EQ(want.min, got.min);
      ASSERT_EQ(want.max, got.max);
    }
  }
  if (s.header_valid) {
    ASSERT_EQ(s.header.seed, full.header.seed);
    ASSERT_EQ(s.header.chunk_count, full.header.chunk_count);
  }
}

TEST_F(ChunkStreamCorruption, SalvageEveryByteTruncationIsValidPrefix) {
  const ChunkStream full = parse_chunk_stream(text_, "full");
  for (std::size_t cut = 0; cut < text_.size(); ++cut) {
    const SalvagedStream s =
        salvage_chunk_stream(text_.substr(0, cut), "cut");
    ASSERT_FALSE(s.complete) << "cut at byte " << cut;
    ASSERT_FALSE(s.truncation_reason.empty()) << "cut at byte " << cut;
    expect_valid_prefix(s, full);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "at truncation point " << cut;
    }
  }
}

TEST_F(ChunkStreamCorruption, SalvageEverySingleByteCorruptionIsCaught) {
  const ChunkStream full = parse_chunk_stream(text_, "full");
  // Exhaustive single-bit pass: the CRC (and the structural checks) must
  // catch a flip at EVERY byte position — complete is never claimed and
  // no non-prefix chunk ever survives.
  for (std::size_t pos = 0; pos < text_.size(); ++pos) {
    std::string mutated = text_;
    mutated[pos] ^= 0x01;
    const SalvagedStream s = salvage_chunk_stream(mutated, "flip");
    ASSERT_FALSE(s.complete) << "flip at byte " << pos;
    expect_valid_prefix(s, full);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "at corrupted byte " << pos;
    }
  }
  // Randomized pass: arbitrary single-byte rewrites (any value, any
  // position, including newline bytes that shear the line structure).
  std::mt19937_64 rng(0xC0FFEE);
  for (int i = 0; i < 2000; ++i) {
    const std::size_t pos = rng() % text_.size();
    const char replacement = static_cast<char>(rng() & 0xFF);
    if (replacement == text_[pos]) continue;
    std::string mutated = text_;
    mutated[pos] = replacement;
    const SalvagedStream s = salvage_chunk_stream(mutated, "mut");
    ASSERT_FALSE(s.complete) << "rewrite at byte " << pos;
    expect_valid_prefix(s, full);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "at rewritten byte " << pos << " iteration " << i;
    }
  }
}

TEST_F(ChunkStreamCorruption, SalvageRandomDoubleFaultsStayValidPrefixes) {
  // Truncation stacked on corruption — the nastier realistic shape (a
  // process died mid-write after a disk hiccup).
  const ChunkStream full = parse_chunk_stream(text_, "full");
  std::mt19937_64 rng(0xBADF00D);
  for (int i = 0; i < 1000; ++i) {
    std::string mutated = text_;
    mutated[rng() % mutated.size()] ^= static_cast<char>(1 + rng() % 255);
    mutated.resize(rng() % (mutated.size() + 1));
    const SalvagedStream s = salvage_chunk_stream(mutated, "double");
    ASSERT_FALSE(s.complete);
    expect_valid_prefix(s, full);
    if (::testing::Test::HasFatalFailure()) FAIL() << "iteration " << i;
  }
}

TEST_F(ChunkStreamCorruption, MergeErrorsNameShardSourceAndLine) {
  // A record whose trial window disagrees with the recomputed plan:
  // CRC-valid (resealed), in-range, but not the chunk the plan says
  // belongs there. The rejection must say which shard, stream and line.
  const auto exec0 = run_campaign_shard(scenario_, opt_, 2, 0);
  std::string text0 = serialize_chunk_stream(scenario_, opt_, exec0);
  // Shard 0 of 2, chunk_size 1, 6 trials: records are ids 0,2,4 with
  // windows (0,1),(2,3),(4,5) on lines 2,3,4. Shift line 3's window.
  const std::size_t at = text0.find("\"trial_begin\":2,\"trial_end\":3");
  ASSERT_NE(at, std::string::npos);
  text0.replace(at, 29, "\"trial_begin\":3,\"trial_end\":4");
  text0 = reseal_line(text0, 3);

  std::vector<ChunkStream> streams;
  streams.push_back(parse_chunk_stream(text0, "shard-zero.jsonl"));
  streams.push_back(parse_chunk_stream(
      serialize_chunk_stream(scenario_, opt_,
                             run_campaign_shard(scenario_, opt_, 2, 1)),
      "shard-one.jsonl"));
  try {
    merge_chunk_streams(scenario_, streams);
    FAIL() << "tampered record must not merge";
  } catch (const ChunkStreamError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shard 0"), std::string::npos) << what;
    EXPECT_NE(what.find("shard-zero.jsonl"), std::string::npos) << what;
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
  }

  // Header disagreement names both shards and both sources.
  CampaignOptions other = opt_;
  other.seed = opt_.seed + 1;
  std::vector<ChunkStream> mixed;
  mixed.push_back(parse_chunk_stream(
      serialize_chunk_stream(scenario_, opt_,
                             run_campaign_shard(scenario_, opt_, 2, 0)),
      "seed-a.jsonl"));
  mixed.push_back(parse_chunk_stream(
      serialize_chunk_stream(scenario_, other,
                             run_campaign_shard(scenario_, other, 2, 1)),
      "seed-b.jsonl"));
  try {
    merge_chunk_streams(scenario_, mixed);
    FAIL() << "seed mismatch must not merge";
  } catch (const ChunkStreamError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shard 1"), std::string::npos) << what;
    EXPECT_NE(what.find("seed-b.jsonl"), std::string::npos) << what;
    EXPECT_NE(what.find("seed-a.jsonl"), std::string::npos) << what;
  }
}

TEST_F(ChunkStreamCorruption, MergeRejectsRepairStreams) {
  // A repair stream (explicit chunk set from a dispatcher re-deal) is
  // valid on its own but must not enter the strict K-stream merge — the
  // dispatcher's recovery merge owns that path.
  const ShardPlan repair = make_repair_plan(scenario_, opt_, 1, 0, {1, 3});
  EXPECT_TRUE(repair.repair);
  const auto exec = run_campaign_chunks(scenario_, opt_, repair);
  const ChunkStream stream = parse_chunk_stream(
      serialize_chunk_stream(scenario_, opt_, exec), "repair.jsonl");
  EXPECT_TRUE(stream.header.repair);
  try {
    merge_chunk_streams(scenario_, {stream});
    FAIL() << "repair stream must not merge";
  } catch (const ChunkStreamError& e) {
    EXPECT_NE(std::string(e.what()).find("repair"), std::string::npos)
        << e.what();
  }
}

TEST(WorkerPool, Fig9AggregatesAndAccountingStableUnderStress) {
  // fig9's eavesdrop path, shrunk to two locations and one packet per
  // trial. 50 repetitions at every thread count: which worker claims
  // which chunk varies run to run, the aggregates and the
  // deployment-pool accounting must not.
  Scenario s = shrunk("fig9-eaves-ber", {1.0, 7.0}, 1);
  CampaignOptions opt;
  opt.seed = 17;
  opt.threads = 1;
  opt.trials_per_point = 3;
  const auto reference = run_campaign(s, opt);

  // Every eavesdrop trial acquires exactly one pooled deployment, so
  // builds + reuses must equal the trial count — the accounting identity
  // that catches a worker double-counting or dropping acquisitions.
  const auto built = [](const CampaignResult& r) {
    return r.metrics.counter(obs::Counter::kDeploymentsBuilt);
  };
  const auto reused = [](const CampaignResult& r) {
    return r.metrics.counter(obs::Counter::kDeploymentsReused);
  };
  const std::size_t acquisitions = built(reference) + reused(reference);
  EXPECT_EQ(acquisitions, reference.total_trials);

  std::vector<unsigned> thread_counts = {2, 3};
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 3) thread_counts.push_back(hw);

  for (int rep = 0; rep < 50; ++rep) {
    for (unsigned threads : thread_counts) {
      CampaignOptions parallel = opt;
      parallel.threads = threads;
      const auto result = run_campaign(s, parallel);
      expect_identical(reference, result);
      EXPECT_EQ(built(result) + reused(result), acquisitions)
          << "rep " << rep << " threads " << threads;
      // Each worker builds at most one deployment for this single-config
      // scenario, whichever chunks it claimed.
      EXPECT_LE(built(result), static_cast<std::size_t>(threads));
      if (testing::Test::HasFailure()) return;  // don't spam 50x
    }
  }
}

TEST(WorkerPool, ChunkSizeBoundariesNotThreadsDefineAggregates) {
  // Changing thread count never changes aggregates; changing chunk_size
  // legitimately may (it changes the merge tree). Guard both directions
  // so nobody "fixes" determinism by accident of a shared accumulator.
  const Scenario s = shrunk("fig5-jam-shaped", {}, 1);
  CampaignOptions a;
  a.seed = 29;
  a.threads = 1;
  a.trials_per_point = 12;
  CampaignOptions b = a;
  b.threads = 4;
  expect_identical(run_campaign(s, a), run_campaign(s, b));

  CampaignOptions c = a;
  c.chunk_size = 5;
  const auto chunked = run_campaign(s, c);
  // Counts match even though the merge tree differs.
  EXPECT_EQ(chunked.points[0].stats(Metric::kToneBandFraction).count(),
            run_campaign(s, a)
                .points[0]
                .stats(Metric::kToneBandFraction)
                .count());
}

}  // namespace
}  // namespace hs::campaign
