// Warm-state snapshot subsystem tests: exact state serialization round
// trips, strict rejection of corrupted/truncated/version-mismatched
// documents (no partial restores, ever), the keyed in-memory snapshot
// cache, deployment save/restore bit-identity — including a randomized
// round-trip property test — a chunk restored in a fresh context, and
// campaign-level byte identity of warm runs against cold runs, on every
// kernel backend the host supports, for every scenario preset.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "campaign/chunk_stream.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "crypto/sha256.hpp"
#include "dsp/kernels.hpp"
#include "dsp/rng.hpp"
#include "imd/profiles.hpp"
#include "shield/deployment.hpp"
#include "shield/trial_context.hpp"
#include "snapshot/snapshot_cache.hpp"
#include "snapshot/state_io.hpp"

namespace hs {
namespace {

using snapshot::SnapshotCache;
using snapshot::SnapshotError;
using snapshot::StateDoc;
using snapshot::StateReader;
using snapshot::StateWriter;

// ---- StateWriter / StateReader --------------------------------------------

TEST(StateIo, RoundTripsEveryEntryType) {
  StateWriter w;
  w.begin("outer");
  w.u64("answer", 42);
  w.u64("max", UINT64_MAX);
  w.f64("pi", 3.141592653589793);
  w.f64("neg_zero", -0.0);
  w.f64("denormal", 5e-324);
  w.f64("huge", 1.7976931348623157e308);
  w.boolean("yes", true);
  w.boolean("no", false);
  w.str("empty", "");
  w.str("tricky", "a b\\c\nd\te\x01f");
  w.cx("z", dsp::cplx{1.5, -2.25});
  w.f64_vec("vec", std::vector<double>{1.0, -0.5, 1e-300});
  w.f64_vec("empty_vec", std::vector<double>{});
  dsp::Samples s{{1.0, 2.0}, {-3.0, 4.0}};
  w.samples("samples", dsp::SampleView(s));
  dsp::SoaSamples soa(3);
  for (std::size_t i = 0; i < 3; ++i) {
    soa.re()[i] = 0.1 * static_cast<double>(i);
    soa.im()[i] = -0.2 * static_cast<double>(i);
  }
  w.soa("soa", soa.view());
  w.bytes("bytes", std::vector<std::uint8_t>{0x00, 0x7f, 0xff});
  w.bytes("no_bytes", std::vector<std::uint8_t>{});
  w.end("outer");

  const std::string text = w.finish();
  const StateDoc doc = StateDoc::parse(text, "test");
  StateReader r(doc);
  r.begin("outer");
  EXPECT_EQ(r.u64("answer"), 42u);
  EXPECT_EQ(r.u64("max"), UINT64_MAX);
  EXPECT_EQ(r.f64("pi"), 3.141592653589793);
  const double nz = r.f64("neg_zero");
  EXPECT_TRUE(std::signbit(nz));
  EXPECT_EQ(r.f64("denormal"), 5e-324);
  EXPECT_EQ(r.f64("huge"), 1.7976931348623157e308);
  EXPECT_TRUE(r.boolean("yes"));
  EXPECT_FALSE(r.boolean("no"));
  EXPECT_EQ(r.str("empty"), "");
  EXPECT_EQ(r.str("tricky"), "a b\\c\nd\te\x01f");
  EXPECT_EQ(r.cx("z"), (dsp::cplx{1.5, -2.25}));
  EXPECT_EQ(r.f64_vec("vec"), (std::vector<double>{1.0, -0.5, 1e-300}));
  EXPECT_TRUE(r.f64_vec("empty_vec").empty());
  EXPECT_EQ(r.samples("samples"), s);
  dsp::SoaSamples soa2;
  r.soa("soa", soa2);
  ASSERT_EQ(soa2.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(soa2.re()[i], soa.re()[i]);
    EXPECT_EQ(soa2.im()[i], soa.im()[i]);
  }
  EXPECT_EQ(r.bytes("bytes"), (std::vector<std::uint8_t>{0x00, 0x7f, 0xff}));
  EXPECT_TRUE(r.bytes("no_bytes").empty());
  r.end("outer");
  r.expect_exhausted();
}

TEST(StateIo, HexFloatsAreBitExact) {
  dsp::Rng rng(123, "hexfloat-test");
  StateWriter w;
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) {
    // Spread across magnitudes, both signs.
    const double v = (rng.uniform() - 0.5) *
                     std::pow(10.0, rng.uniform() * 600.0 - 300.0);
    values.push_back(v);
    w.f64("v", v);
  }
  const StateDoc doc = StateDoc::parse(w.finish(), "test");
  StateReader r(doc);
  for (double want : values) {
    const double got = r.f64("v");
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0);
  }
}

TEST(StateIo, RejectsForeignAndVersionMismatchedDocuments) {
  EXPECT_THROW(StateDoc::parse("", "t"), SnapshotError);
  EXPECT_THROW(StateDoc::parse("{\"json\": true}\n", "t"), SnapshotError);
  // A future version must be refused, not half-understood.
  try {
    StateDoc::parse("hs-snapshot v2\nu k 1\nsha256 x\n", "t");
    FAIL() << "v2 document was accepted";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(StateIo, RejectsTruncationAtEveryBoundary) {
  StateWriter w;
  w.begin("s");
  w.u64("a", 1);
  w.f64_vec("v", std::vector<double>{1.0, 2.0, 3.0});
  w.end("s");
  const std::string text = w.finish();
  // Any strict prefix must be rejected — mid-line, at line boundaries,
  // with or without the checksum trailer.
  for (std::size_t len = 0; len < text.size(); ++len) {
    EXPECT_THROW(StateDoc::parse(text.substr(0, len), "t"), SnapshotError)
        << "prefix of length " << len << " was accepted";
  }
  EXPECT_NO_THROW(StateDoc::parse(text, "t"));
}

TEST(StateIo, RejectsSingleByteCorruption) {
  StateWriter w;
  w.begin("s");
  w.u64("count", 7);
  w.str("name", "x");
  w.end("s");
  const std::string text = w.finish();
  for (std::size_t i = 0; i < text.size(); ++i) {
    std::string bad = text;
    bad[i] = bad[i] == 'Q' ? 'R' : 'Q';
    EXPECT_THROW(StateDoc::parse(bad, "t"), SnapshotError)
        << "corrupting byte " << i << " went unnoticed";
  }
}

TEST(StateIo, RejectsUnbalancedSectionsAndBadPayloads) {
  const auto parse_body = [](const std::string& body) {
    // Assemble a correctly checksummed document around the body, so the
    // structural validation (not the checksum) is what rejects it.
    std::string text = "hs-snapshot v1\n" + body + "sha256 " +
                       snapshot::sha256_hex(body) + "\n";
    return StateDoc::parse(text, "t");
  };
  EXPECT_THROW(parse_body("( open\n"), SnapshotError);
  EXPECT_THROW(parse_body(") never_opened\n"), SnapshotError);
  EXPECT_THROW(parse_body("( a\n) b\n"), SnapshotError);
  EXPECT_THROW(parse_body("u k notanumber\n"), SnapshotError);
  EXPECT_THROW(parse_body("u k 99999999999999999999999\n"), SnapshotError);
  EXPECT_THROW(parse_body("b k 2\n"), SnapshotError);
  EXPECT_THROW(parse_body("f k nothex\n"), SnapshotError);
  EXPECT_THROW(parse_body("v k 3 0x1p0\n"), SnapshotError);  // count lies
  // A corrupted (huge) count must fail as a SnapshotError BEFORE any
  // allocation, never as std::length_error/bad_alloc escaping the
  // cold-fallback handlers.
  EXPECT_THROW(parse_body("v k 18446744073709551615 0x1p0\n"), SnapshotError);
  EXPECT_THROW(parse_body("y k 2 zz!!\n"), SnapshotError);
  EXPECT_THROW(parse_body("y k 4 abcd\n"), SnapshotError);  // short run
  EXPECT_THROW(parse_body("? k 1\n"), SnapshotError);       // unknown tag
  EXPECT_THROW(parse_body("u k 1 trailing\n"), SnapshotError);
  EXPECT_NO_THROW(parse_body("u k 1\n"));
}

TEST(StateIo, ReaderRejectsShapeSkew) {
  StateWriter w;
  w.u64("a", 1);
  w.f64("b", 2.0);
  const StateDoc doc = StateDoc::parse(w.finish(), "t");
  {
    StateReader r(doc);
    EXPECT_THROW(r.u64("wrong_key"), SnapshotError);
  }
  {
    StateReader r(doc);
    EXPECT_THROW(r.f64("a"), SnapshotError);  // wrong tag
  }
  {
    StateReader r(doc);
    EXPECT_EQ(r.u64("a"), 1u);
    EXPECT_THROW(r.expect_exhausted(), SnapshotError);  // 'b' unread
    EXPECT_EQ(r.f64("b"), 2.0);
    EXPECT_THROW(r.f64("c"), SnapshotError);  // read past end
  }
}

TEST(StateIo, RngStreamPositionRoundTrips) {
  dsp::Rng a(9, "stream");
  for (int i = 0; i < 17; ++i) a.next_u64();  // advance mid-stream
  StateWriter w;
  snapshot::write_rng(w, "rng", a);
  const StateDoc doc = StateDoc::parse(w.finish(), "t");
  StateReader r(doc);
  dsp::Rng b(1);  // unrelated start state
  snapshot::read_rng(r, "rng", b);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

// ---- SnapshotCache --------------------------------------------------------

std::string tiny_snapshot() {
  StateWriter w;
  w.begin("x");
  w.u64("v", 5);
  w.end("x");
  return w.finish();
}

TEST(SnapshotCacheTest, MemoryStoreAndFind) {
  SnapshotCache cache;
  EXPECT_EQ(cache.find("k"), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  const auto stored = cache.store("k", tiny_snapshot());
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(cache.find("k").get(), stored.get());
  EXPECT_EQ(cache.hits(), 1u);
  // Unparseable payloads must never enter the cache.
  EXPECT_THROW(cache.store("bad", "not a snapshot"), SnapshotError);
  EXPECT_EQ(cache.find("bad"), nullptr);
}

// ---- Deployment save/restore ----------------------------------------------

TEST(DeploymentSnapshot, WarmKeyIsConfigurationSensitive) {
  shield::DeploymentOptions base;
  base.seed = 3;
  base.warmup_seed = 11;
  const std::string key = shield::deployment_warm_key(base);

  // The trial seed must NOT key in two-phase mode: one snapshot serves
  // every trial.
  shield::DeploymentOptions other_trial = base;
  other_trial.seed = 4;
  EXPECT_EQ(shield::deployment_warm_key(other_trial), key);

  // Everything else must.
  shield::DeploymentOptions w = base;
  w.warmup_seed = 12;
  EXPECT_NE(shield::deployment_warm_key(w), key);
  shield::DeploymentOptions sigma = base;
  sigma.shield_config.hardware_error_sigma = 0.1;
  EXPECT_NE(shield::deployment_warm_key(sigma), key);
  shield::DeploymentOptions profile = base;
  profile.imd_profile = imd::concerto_profile();
  EXPECT_NE(shield::deployment_warm_key(profile), key);
  shield::DeploymentOptions observer = base;
  observer.with_observer = true;
  EXPECT_NE(shield::deployment_warm_key(observer), key);
  shield::DeploymentOptions no_shield = base;
  no_shield.shield_present = false;
  EXPECT_NE(shield::deployment_warm_key(no_shield), key);

  // In legacy single-phase mode warm-up consumed the trial seed, so the
  // trial seed keys.
  shield::DeploymentOptions legacy = base;
  legacy.warmup_seed = 0;
  shield::DeploymentOptions legacy_other = legacy;
  legacy_other.seed = 4;
  EXPECT_NE(shield::deployment_warm_key(legacy),
            shield::deployment_warm_key(legacy_other));
}

TEST(DeploymentSnapshot, RestoreMatchesColdWarmupExactly) {
  shield::DeploymentOptions opt;
  opt.seed = 21;
  opt.warmup_seed = 5;
  opt.with_observer = true;

  shield::Deployment cold(opt);
  const std::string snap = cold.save_warm();
  const StateDoc doc = StateDoc::parse(snap, "mem");

  // Restore into a freshly built (warm-up-skipping) deployment...
  shield::Deployment restored(doc, opt);
  EXPECT_EQ(restored.save_warm(), snap);

  // ...and into a pooled deployment previously holding another trial.
  shield::DeploymentOptions other = opt;
  other.seed = 99;
  shield::Deployment pooled(other);
  pooled.restore_warm(doc, opt);
  EXPECT_EQ(pooled.save_warm(), snap);

  // All three must now evolve identically, bit for bit.
  cold.run_for(2e-3);
  restored.run_for(2e-3);
  pooled.run_for(2e-3);
  const std::string after = cold.save_warm();
  EXPECT_EQ(restored.save_warm(), after);
  EXPECT_EQ(pooled.save_warm(), after);
}

TEST(DeploymentSnapshot, RestoreRejectsMismatches) {
  shield::DeploymentOptions opt;
  opt.seed = 8;
  opt.warmup_seed = 2;
  shield::Deployment d(opt);
  const StateDoc doc = StateDoc::parse(d.save_warm(), "mem");

  // Different configuration => key mismatch, hard error.
  shield::DeploymentOptions other = opt;
  other.shield_config.hardware_error_sigma = 0.2;
  shield::Deployment victim(other);
  EXPECT_THROW(victim.restore_warm(doc, other), SnapshotError);

  // Mismatched node set => hard error before any state is touched.
  shield::DeploymentOptions observed = opt;
  observed.with_observer = true;
  EXPECT_THROW(victim.restore_warm(doc, observed), SnapshotError);
}

TEST(DeploymentSnapshot, RandomizedRoundTripProperty) {
  // Property: for randomized configurations and a randomized amount of
  // post-warm-up evolution, save -> restore -> save is byte-identical,
  // and the restored deployment continues bit-identically to the
  // original. begin_trial() is replayed on the original because
  // restore_warm ends with it by contract.
  dsp::Rng rng(4242, "snapshot-property");
  for (int rep = 0; rep < 8; ++rep) {
    SCOPED_TRACE(rep);
    shield::DeploymentOptions opt;
    opt.seed = rng.next_u64() | 1;
    opt.warmup_seed = rng.next_u64() | 1;
    opt.shield_present = rep != 3;  // one no-shield rep
    opt.with_observer = (rep % 3) == 1;
    opt.imd_profile = (rep % 2) == 0 ? imd::virtuoso_profile()
                                     : imd::concerto_profile();
    if ((rep % 4) == 2) opt.shield_config.hardware_error_sigma = 0.05;
    opt.warmup_s = 2e-3 + 1e-3 * static_cast<double>(rep % 3);

    shield::Deployment original(opt);
    const double evolve_s = 1e-3 * static_cast<double>(rng.uniform_u64(4));
    if (evolve_s > 0.0) original.run_for(evolve_s);

    const std::string snap = original.save_warm();
    const StateDoc doc = StateDoc::parse(snap, "mem");
    shield::Deployment restored(doc, opt);
    original.begin_trial(opt.seed);
    EXPECT_EQ(restored.save_warm(), original.save_warm());

    original.run_for(2e-3);
    restored.run_for(2e-3);
    EXPECT_EQ(restored.save_warm(), original.save_warm());
  }
}

// ---- TrialContext fallback ------------------------------------------------

TEST(TrialContextSnapshot, CorruptCacheEntryFallsBackToColdBitIdentically) {
  shield::DeploymentOptions opt;
  opt.seed = 31;

  // Reference: cold two-phase warm-up, no cache.
  shield::TrialContext cold;
  cold.set_warm_policy(7, nullptr);
  const std::string want = cold.deployment(opt).save_warm();

  // Another configuration's warm document, filed under this
  // configuration's key: the cache hands it out, and restore_warm throws
  // inside deployment() on the key mismatch.
  shield::DeploymentOptions other = opt;
  other.with_observer = true;
  shield::TrialContext foreign;
  foreign.set_warm_policy(7, nullptr);
  const std::string wrong = foreign.deployment(other).save_warm();
  shield::DeploymentOptions keyed = opt;
  keyed.warmup_seed = 7;
  SnapshotCache cache;
  cache.store(shield::deployment_warm_key(keyed), wrong);

  shield::TrialContext ctx;
  ctx.set_warm_policy(7, &cache);
  shield::Deployment& d = ctx.deployment(opt);
  EXPECT_EQ(cache.hits(), 1u);
  // The failed restore left nothing half-applied: the context warmed up
  // cold — state identical to the no-cache reference.
  EXPECT_EQ(d.save_warm(), want);
  EXPECT_EQ(ctx.snapshots_restored(), 0u);
  EXPECT_EQ(ctx.deployments_built(), 1u);
}

// ---- Campaign-level byte identity -----------------------------------------

campaign::Scenario shrink(const campaign::Scenario& preset) {
  campaign::Scenario s = preset;
  if (s.axis != campaign::SweepAxis::kNone && s.axis_values.size() > 2) {
    s.axis_values.resize(2);
  }
  s.units_per_trial = std::min<std::size_t>(s.units_per_trial, 1);
  s.default_trials = 2;
  return s;
}

std::string sha256_hex(const std::string& text) {
  const auto digest = crypto::Sha256::hash(crypto::ByteView(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
  static constexpr char kHex[] = "0123456789abcdef";
  std::string hex;
  for (const std::uint8_t b : digest) {
    hex += kHex[b >> 4];
    hex += kHex[b & 15];
  }
  return hex;
}

// SHA-256 of each shrunk preset's canonical CSV and JSON at seed 13.
// Report bytes are a pure function of the configuration, so a change that
// moves any digest changed what the simulator computes.
struct PresetDigests {
  const char* preset;
  const char* csv;
  const char* json;
};

constexpr PresetDigests kGoldenDigests[] = {
    {"fig3-imd-timing",
     "c571ced3bd853b678fbf219da1ced2e494150f1c9e9b4bb90ddcbba1c2188609",
     "c6a97a9910da4b5aec030a390a32eca520e4a867e5b660693e1cf7475bf87093"},
    {"fig4-fsk-profile",
     "cbdd831e57c93019d0742fc98de2170974cefb912922d696af1f5cb40cde78d7",
     "079d3de69256f68caae9c3c5f9b616429608b7343908d59a037cc78415a6d9f9"},
    {"fig5-jam-shaped",
     "12a2f8e3388723d52ecd37a3734a8f4eb609418b7a39b99ed38b47cf927262e5",
     "36697326c86f8d33a3222fea8b8811188b733f3e361f466b60561f51dde4952e"},
    {"fig5-jam-constant",
     "934b7b385d0298219de335c0e6ce3998e9f09dd3e46676971c91ba98f1f59afb",
     "d6933e5afeba513ed5185f1abc0470ad6e066ab3866fe26788a59789462a21a4"},
    {"fig7-cancellation",
     "7e433523ae910963a20e17eed2475a813bcbc83a26ccdcc7666f050621f49272",
     "b35acf1beae925ad820671627468651ee435ba3be450eb1f09c01bc8b10b9f08"},
    {"fig8-tradeoff",
     "afd34807a5f23724f66286aab87703bb9452bed825a2f710a5001e628171ac93",
     "85bd624ac7f58f73c0fea6618c26b0968f7098f22238bbd39b71bf0df9090c40"},
    {"fig9-eaves-ber",
     "8ecfaf8156f42b5c7e2ef359967d1dd28423be01b98b08d19be363c858289e3e",
     "689e15c8b7cd4859e29b3e5aad237a001e2c0e99e57a696b90f0efcd728f00c4"},
    {"fig10-shield-per",
     "07d41100fe1c88318e5e5fcf8cce893b3d0992d24fb92b811601b5cf6b594a64",
     "74d9710275ea49639fe540647c8a1afadd7a18d70669b538649bff252f495612"},
    {"fig11-trigger",
     "a58e9c01eb1f82faab19ef4969453cff0f93ce251cb8db33d963b16128744cb8",
     "5404913ab05ced627f546f1ddfdcd527779d58ddcc8f0e79b0b13bce8630c4e3"},
    {"fig12-therapy",
     "7835232d5b318759af99761a525c3e9e783f9f657c5ea11268b74fe2a227a037",
     "76e763b3af6d2aae39d7c884fd880c37c5c0e67558c82be93db7070c7f665915"},
    {"fig13-high-power",
     "3e3c51749d7948bbf9165fb29a85a6d38853c178a9dfc59d5b18650e7975af76",
     "198badb351c776e1833fb042aed8f1d32e669b0b6418f448d035e51b2e285d74"},
    {"fig11-trigger-noshield",
     "b2d93edcafe06328fab7039ac31b3dbeccb98ddcef6a74230530329d71d237d5",
     "513c77b2c59ede4dcea0af15331e89b3d5bce5eeef17eeefe8f7f91188210802"},
    {"fig12-therapy-noshield",
     "4c3600aa56cffbcd8ba55fe3277b228ef91c30cefc2a78ef3292e5fe7abea608",
     "83c5484319734efc1cb16d936f41c47f5f214da662e488a8997d647419a82853"},
    {"fig13-high-power-noshield",
     "59ff6d1a1cc9b45532952884de1bca945600fafd7e1059581c98b8c050a0231b",
     "aef3f4eef2807e69cbb39fa83b7bcee4272e5affd9198a49655cc5d652a486a9"},
    {"table1-pthresh",
     "1d27a119aabb37c03c5340887b217cd5344fa25ba51d2e3fe97be7600d089afb",
     "8cf9c41d32a0efa44fc7d529976688fe439f9bb88d58f54c54909688d6831ef6"},
    {"table2-coexistence",
     "fd3aef22976453515a4fc6e33a5e786987d60e7e5c3d1883d64a80f3b9c2505a",
     "d572f15a0401f4e4c5716da056d0830ae2b0e9769877a4ca2d4263dfb5bd65c8"},
    {"ablate-shaping-shaped-opt",
     "1bfa6400d7c0f7cc0f75d26b059f3e48a2ec7764e61acfb043a9ca1f1afddbe7",
     "3b21f1e57a54179b19905035bc8c0ddec7f582322554f83f3ad64be94cf8dc0e"},
    {"ablate-shaping-shaped-bpf",
     "0dc3c1dfec9f416a1208865b385c7c05d6f3c64a89cd3b4a1b3d35304c8f57e6",
     "0e663589aa00c0284e1b931a40babe77bbb9d614ce66a4b1ebf44bb2276155c9"},
    {"ablate-shaping-constant-opt",
     "39f196ce77a25a73c8f08e9d1fcdc1c03a8a98f2222657a068e805470c2f2435",
     "af46a49a77909b92bb5fa8309aef1553133a3aebb28fa9feaeabdcffe4e63a0e"},
    {"ablate-shaping-constant-bpf",
     "33e2eda04e07cd9fd7d70b28651e6ab59c9ab683c85693f38524ff3f1344b383",
     "5c5eb056c9fc5b2d24fd404039f34ed6fac15fd8ee97172bfba6eaaaa007e774"},
    {"ablate-gap",
     "47da890b411a8d8d4eb4228efd9da1064ec787389b1c2f88bd8cd2492ae9fb25",
     "b3c106b5cb04f79c73bc99de1f040b98c019fc9f98cd3c9bcf66dee62dfec4e9"},
    {"ablate-positional",
     "ffc554fcde48f2c472d9532cab01e03f840956e7103cba79b1246938f3296131",
     "980bae8698072f1932b239c343408de37d33492c5f6db1766fb798d7b4bf5a69"},
    {"ext-battery",
     "cee31f8d796d8c44896cd29d2a13c440e1f4d01e7984eaa2043fd1343c0a0df6",
     "5b28a1b178b8f8b2f2c27f13449ceb5816f1fb7651924729baeeb0740139d841"},
    {"ext-battery-noshield",
     "2bb0a44527032de4ea5cdcfd6f586ae3a4c6c8a4ee51553a3c43a31e6b5eddf8",
     "a78fa590f7bbcbb92284bf0f5dee4b685e66e4dadc9b79e3f6443dc0ac16083b"},
    {"ext-multipath",
     "c1a76b4c197c00a57baaec552a3a6ebdb52fd45f72c4da55353787803ca81b87",
     "f942a6c9d352b51293985db9787432f433987f61be82851abff0db59193c056d"},
    {"ext-wideband",
     "79ef9d549a31e76995866dade624b6da3040c65075a9096a831ff6f9058a51d0",
     "0e677938fdf17cb14264772b686ffdca3df5500ff6666e49d532b93fc31aad60"},
    {"multi-adversary-eaves",
     "33f2c67838333fdf4981ade6f2d844acfe2f0453a248c36881439ccea6546f00",
     "ede53c423cf2a0c0f48065ea380794e359ca240dc3ec8b8587c7b60f5cbc487b"},
    {"multi-imd-trigger",
     "6446bc9cd358daf44520e536b14d2de108b676554a59ea72a98ff9771f06f6ab",
     "4dbc366dbf610fec4f66d8cfbe5596490a1258181f1ab3fcac2704ff6596682f"},
    {"multi-imd-trigger-noshield",
     "db8de813cea4fdf2374b5365cc3cdde2414dfd73738444635951d7b34587ec25",
     "506c8a9ffd4208575a2acf5b1a2fb8dead67480134f1a42c6d7c16531d531b2a"},
};

void expect_golden_digests(const std::string& preset, const std::string& csv,
                           const std::string& json) {
  const PresetDigests* golden = nullptr;
  for (const PresetDigests& d : kGoldenDigests) {
    if (preset == d.preset) golden = &d;
  }
  ASSERT_NE(golden, nullptr) << "no recorded digests; csv " << sha256_hex(csv)
                             << " json " << sha256_hex(json);
  EXPECT_EQ(sha256_hex(csv), golden->csv) << "canonical CSV bytes moved";
  EXPECT_EQ(sha256_hex(json), golden->json) << "canonical JSON bytes moved";
}

/// Restores the active kernel backend when the scope ends.
struct BackendGuard {
  BackendGuard() = default;
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;
  ~BackendGuard() { dsp::kernels::set_backend(saved); }

  dsp::kernels::Backend saved = dsp::kernels::active_backend();
};

TEST(CampaignSnapshot, WarmRunsByteIdenticalToColdForEveryPreset) {
  // The tentpole invariant, enforced preset by preset: a warm-restored
  // campaign emits byte-identical canonical CSV and JSON to a cold run,
  // and both match the recorded golden digests. The cold leg runs once
  // per kernel backend this host supports, so every backend is held to
  // the same bytes.
  using dsp::kernels::Backend;
  std::vector<Backend> backends;
  for (const Backend b : {Backend::kScalar, Backend::kSse2, Backend::kAvx2}) {
    if (dsp::kernels::backend_table(b) != nullptr) backends.push_back(b);
  }
  const BackendGuard restore_backend;
  for (const auto& preset : campaign::scenario_presets()) {
    SCOPED_TRACE(preset.name);
    const campaign::Scenario s = shrink(preset);

    campaign::CampaignOptions cold;
    cold.seed = 13;
    cold.threads = 1;
    cold.snapshots = false;

    campaign::CampaignOptions warm = cold;
    warm.snapshots = true;
    auto warm_result = campaign::run_campaign(s, warm);
    if (campaign::experiment_uses_deployments(s.kind)) {
      // A warm context consults the cache only when it (re)builds its
      // deployment, so a 1-thread run may satisfy every later trial by
      // resetting its pooled deployment: the cache's footprint is
      // "published at least one snapshot" (and restored on any rebuild),
      // not "restored every trial".
      const std::uint64_t touched =
          warm_result.metrics.counter(obs::Counter::kSnapshotsRestored) +
          warm_result.metrics.counter(obs::Counter::kSnapshotsSaved);
      EXPECT_GT(touched, 0u);
    }
    campaign::canonicalize(warm_result);
    const std::string csv = campaign::to_csv(warm_result);
    const std::string json = campaign::to_json(warm_result);
    expect_golden_digests(preset.name, csv, json);

    for (const Backend b : backends) {
      SCOPED_TRACE(dsp::kernels::backend_name(b));
      ASSERT_TRUE(dsp::kernels::set_backend(b));
      auto cold_result = campaign::run_campaign(s, cold);
      campaign::canonicalize(cold_result);
      EXPECT_EQ(campaign::to_csv(cold_result), csv);
      EXPECT_EQ(campaign::to_json(cold_result), json);
    }
  }
}

TEST(CampaignSnapshot, ChunkRestoredInAFreshContextMatchesColdChunk) {
  // Two workers of one campaign: A runs chunk 0 of a point and saves its
  // warm state; a fresh B runs chunk 1 of the same point from that cache
  // and restores instead of warming up. Both chunks equal a cold
  // run_chunk (no cache) bit for bit.
  const campaign::Scenario s =
      shrink(*campaign::find_scenario("fig8-tradeoff"));
  const std::uint64_t seed = 29;
  const std::uint64_t warm_seed = campaign::campaign_warmup_seed(seed, s.name);
  const campaign::ChunkRef chunks[] = {{0, 1, 0, 1}, {1, 1, 1, 2}};
  const auto cold_record = [&](const campaign::ChunkRef& chunk) {
    shield::TrialContext cold;
    return campaign::serialize_chunk_record(
        chunk,
        campaign::run_chunk(s, seed, chunk, &cold, warm_seed, nullptr));
  };

  SnapshotCache cache;
  shield::TrialContext a;
  const auto a_metrics =
      campaign::run_chunk(s, seed, chunks[0], &a, warm_seed, &cache);
  EXPECT_EQ(a.snapshots_saved(), 1u);
  EXPECT_EQ(a.snapshots_restored(), 0u);

  shield::TrialContext b;
  const auto b_metrics =
      campaign::run_chunk(s, seed, chunks[1], &b, warm_seed, &cache);
  EXPECT_EQ(b.snapshots_restored(), 1u);
  EXPECT_EQ(b.snapshots_saved(), 0u);

  EXPECT_EQ(campaign::serialize_chunk_record(chunks[0], a_metrics),
            cold_record(chunks[0]));
  EXPECT_EQ(campaign::serialize_chunk_record(chunks[1], b_metrics),
            cold_record(chunks[1]));
}

}  // namespace
}  // namespace hs
