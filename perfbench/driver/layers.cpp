// Per-layer rows of a traced run: the engine's own phase timers and
// counters, the chunk-stream codec and dispatcher around a wrapped
// executor, and direct timed calls into the DSP kernels and the
// eavesdropper decoder.
#include <algorithm>
#include <array>
#include <random>
#include <utility>

#include "adversary/eavesdropper.hpp"
#include "campaign/report.hpp"
#include "dsp/kernels.hpp"
#include "imd/profiles.hpp"
#include "imd/protocol.hpp"
#include "perfbench.hpp"
#include "phy/frame.hpp"
#include "phy/fsk.hpp"

namespace perfbench {

namespace {

namespace campaign = hs::campaign;
namespace kernels = hs::dsp::kernels;
using hs::obs::Counter;
using hs::obs::Phase;

/// Keeps timed results observable so no call is optimised away.
volatile double g_sink = 0.0;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Median over 7 batches of the nanoseconds one `call()` takes; each
/// batch repeats the call `reps` times.
template <typename Call>
double ns_per_call(std::size_t reps, Call call) {
  for (std::size_t i = 0; i < reps; ++i) call();  // warm caches
  std::vector<double> batches;
  for (int b = 0; b < 7; ++b) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < reps; ++i) call();
    batches.push_back(ms_between(t0, Clock::now()) * 1e6 /
                      static_cast<double>(reps));
  }
  return median(batches);
}

/// Times each wave and keeps every stream the executor delivers.
class TimedExecutor : public campaign::Executor {
 public:
  TimedExecutor(campaign::ThreadExecutor& inner, StreamAgg& agg)
      : inner_(inner), agg_(agg) {}

  std::vector<campaign::TaskOutcome> run_wave(
      const std::vector<campaign::ShardTask>& tasks) override {
    const auto t0 = Clock::now();
    std::vector<campaign::TaskOutcome> out;
    {
      hs::obs::TraceSpan span("perfbench", "wave");
      out = inner_.run_wave(tasks);
    }
    agg_.wave_ms += ms_between(t0, Clock::now());
    ++agg_.waves;
    keep(out);
    return out;
  }
  std::vector<campaign::TaskOutcome> collect_delayed() override {
    auto out = inner_.collect_delayed();
    keep(out);
    return out;
  }
  std::vector<campaign::TaskOutcome> drain() override {
    auto out = inner_.drain();
    keep(out);
    return out;
  }

  std::vector<std::string> take_streams() { return std::move(streams_); }

 private:
  void keep(const std::vector<campaign::TaskOutcome>& out) {
    for (const auto& o : out) streams_.push_back(o.stream_text);
  }

  campaign::ThreadExecutor& inner_;
  StreamAgg& agg_;
  std::vector<std::string> streams_;
};

std::vector<std::string_view> split_lines(std::string_view text) {
  std::vector<std::string_view> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos) nl = text.size();
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

}  // namespace

bool engine_layers(const EngineAgg& agg, std::map<std::string, double>& out,
                   std::string* problem) {
  const hs::obs::Report& r = agg.report;
  const double trials = static_cast<double>(r.phase(Phase::kTrial).calls);
  const double campaigns = static_cast<double>(std::max<std::size_t>(
      agg.campaigns, 1));
  if (trials == 0.0) {
    *problem = "no timed trials";
    return false;
  }
  const auto per_trial_ms = [&](Phase p) {
    return static_cast<double>(r.phase(p).ns) / trials / 1e6;
  };
  const auto per_call_ns = [&](Phase p) {
    const auto& t = r.phase(p);
    return t.calls > 0 ? static_cast<double>(t.ns) / static_cast<double>(t.calls)
                       : 0.0;
  };
  const auto share = [&](Phase p) {
    return agg.wall_ns > 0.0 ? static_cast<double>(r.phase(p).ns) / agg.wall_ns
                             : 0.0;
  };
  const auto per_campaign = [&](Counter c) {
    return static_cast<double>(r.counter(c)) / campaigns;
  };
  const double trial_ms = per_trial_ms(Phase::kTrial);
  const double mix_ms = per_trial_ms(Phase::kMediumMix);
  const double jam_ms = per_trial_ms(Phase::kJamgen);
  const double demod_ms = per_trial_ms(Phase::kReceiverDemod);
  // Exclusive split: everything of a trial outside the three timed
  // phases (timeline, nodes, modulation, scoring, reset).
  const double other_ms = trial_ms - mix_ms - jam_ms - demod_ms;

  out["campaign.trial_ms"] = trial_ms;
  out["campaign.trial_other_ms"] = other_ms;
  out["campaign.chunk_acquire_share"] = share(Phase::kChunkAcquire);
  out["campaign.stats_merge_share"] = share(Phase::kStatsMerge);
  out["campaign.report_ms"] = agg.report_ms / campaigns;
  out["shield.warmup_ms_per_trial"] = per_trial_ms(Phase::kWarmup);
  out["shield.jamgen_ms_per_trial"] = jam_ms;
  out["shield.deployments_built"] = per_campaign(Counter::kDeploymentsBuilt);
  out["shield.deployments_reused"] = per_campaign(Counter::kDeploymentsReused);
  out["snapshot.saves"] = per_campaign(Counter::kSnapshotsSaved);
  out["snapshot.restores"] = per_campaign(Counter::kSnapshotsRestored);
  out["snapshot.save_ms"] = per_call_ns(Phase::kSnapshotSave) / 1e6;
  out["channel.medium_mix_ms_per_trial"] = mix_ms;
  out["channel.medium_mix_ns_per_call"] = per_call_ns(Phase::kMediumMix);
  out["phy.receiver_demod_ms_per_trial"] = demod_ms;
  out["phy.receiver_demod_ns_per_call"] = per_call_ns(Phase::kReceiverDemod);

  const std::array<std::pair<const char*, double>, 4> terms = {{
      {"medium_mix", mix_ms},
      {"jamgen", jam_ms},
      {"receiver_demod", demod_ms},
      {"trial_other", other_ms},
  }};
  for (const auto& [name, value] : terms) {
    if (value < 0.0) {
      *problem = std::string(name) + " is negative (" + std::to_string(value) +
                 " ms): timed phases overlap within a trial";
      return false;
    }
  }
  return true;
}

TracedDispatch traced_dispatch(const campaign::Scenario& scenario,
                               const campaign::CampaignOptions& options,
                               StreamAgg& agg) {
  campaign::DispatchOptions dispatch;
  dispatch.shard_count = kShards;
  campaign::ThreadExecutor inner(scenario, options);
  TimedExecutor executor(inner, agg);
  TracedDispatch d;
  d.result = campaign::dispatch_campaign(scenario, options, dispatch, executor,
                                         &d.report);
  d.streams = executor.take_streams();
  return d;
}

void check_streams(const campaign::Scenario& scenario, const TracedDispatch& d,
                   StreamAgg& agg, Op& op) {
  ++agg.campaigns;
  agg.chunks_redealt += d.report.chunks_redealt;
  if (d.report.chunks_redealt > 0) {
    op.outcome = "redealt";
    op.detail = std::to_string(d.report.chunks_redealt) +
                " chunk(s) re-dealt without a fault plan";
    return;
  }

  // Chunk-stream codec: every record must re-serialize to the exact line
  // the shard wrote; shard balance comes from the trailers' wall times.
  double max_wall = 0.0, sum_wall = 0.0;
  for (const std::string& text : d.streams) {
    const campaign::SalvagedStream s =
        campaign::salvage_chunk_stream(text, "perfbench");
    if (!s.complete) {
      op.outcome = "stream_mismatch";
      op.detail = "incomplete stream: " + s.truncation_reason;
      return;
    }
    const double wall = static_cast<double>(s.trailer.wall_ns);
    max_wall = std::max(max_wall, wall);
    sum_wall += wall;
    const std::vector<std::string_view> lines = split_lines(text);
    std::vector<std::string> lines_out(s.chunks.size());
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < s.chunks.size(); ++i) {
      lines_out[i] =
          campaign::serialize_chunk_record(s.chunks[i].ref, s.chunks[i].metrics);
    }
    agg.serialize_us += ms_between(t0, Clock::now()) * 1e3;
    for (std::size_t i = 0; i < s.chunks.size(); ++i) {
      agg.record_bytes += static_cast<double>(lines_out[i].size() + 1);
      const std::size_t lineno = s.chunks[i].lineno;
      if (lineno == 0 || lineno > lines.size() ||
          lines[lineno - 1] != lines_out[i]) {
        op.outcome = "stream_mismatch";
        op.detail = "record of chunk " +
                    std::to_string(s.chunks[i].ref.chunk_index) +
                    " does not re-serialize to its stream line";
      }
    }
    agg.records += s.chunks.size();
  }
  const std::size_t shards = d.streams.size();
  if (shards > 0 && sum_wall > 0.0) {
    agg.imbalance_sum += max_wall / (sum_wall / static_cast<double>(shards));
  }

  // The strict parse + merge of the same streams must reproduce the
  // dispatched report byte for byte.
  const auto m0 = Clock::now();
  campaign::CampaignResult merged;
  {
    hs::obs::TraceSpan span("perfbench", "merge_chunk_streams");
    std::vector<campaign::ChunkStream> parsed;
    for (const std::string& text : d.streams) {
      parsed.push_back(campaign::parse_chunk_stream(text, "perfbench"));
    }
    merged = campaign::merge_chunk_streams(scenario, parsed);
  }
  agg.merge_ms += ms_between(m0, Clock::now());
  if (campaign::to_csv(merged) != campaign::to_csv(d.result) ||
      campaign::to_json(merged) != campaign::to_json(d.result)) {
    op.outcome = "stream_mismatch";
    op.detail = "merge_chunk_streams disagrees with dispatch_campaign";
  }
}

void stream_layers(const StreamAgg& agg, std::map<std::string, double>& out) {
  const auto ratio = [](double a, std::size_t b) {
    return b > 0 ? a / static_cast<double>(b) : 0.0;
  };
  out["chunk_stream.serialize_us_per_chunk"] =
      ratio(agg.serialize_us, agg.records);
  out["chunk_stream.bytes_per_chunk"] = ratio(agg.record_bytes, agg.records);
  out["chunk_stream.merge_ms"] = ratio(agg.merge_ms, agg.campaigns);
  out["dispatch.wave_ms"] = ratio(agg.wave_ms, agg.waves);
  out["dispatch.shard_imbalance"] = ratio(agg.imbalance_sum, agg.campaigns);
  out["dispatch.chunks_redealt"] = static_cast<double>(agg.chunks_redealt);
}

void kernel_layers(std::map<std::string, double>& out) {
  // Hot-path shapes: the receiver's sync reference (preamble + sync word
  // at the default samples per symbol), one FSK symbol, one medium block,
  // and the FIR tap counts of the resamplers and of the band-pass
  // eavesdropper over one block.
  const std::size_t sps = hs::phy::FskParams{}.sps;
  const std::size_t sync_len =
      (hs::phy::kPreambleBytes + hs::phy::kSyncBytes) * 8 * sps;
  constexpr std::size_t kBlock = 48;
  constexpr std::size_t kRealTaps = 101;
  constexpr std::size_t kCplxTaps = 65;

  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  const auto plane = [&](std::size_t n) {
    std::vector<double> v(n);
    for (double& x : v) x = u(rng);
    return v;
  };
  const std::size_t window = kRealTaps - 1 + kBlock;
  const auto sig_re = plane(std::max(sync_len, window));
  const auto sig_im = plane(sig_re.size());
  const auto ref_re = plane(sync_len);
  const auto ref_im = plane(sync_len);
  double ref_energy = 0.0;
  for (std::size_t i = 0; i < sync_len; ++i) {
    ref_energy += ref_re[i] * ref_re[i] + ref_im[i] * ref_im[i];
  }
  std::vector<double> tone_a(4 * sps), tone_b(4 * sps);
  {
    const auto t0r = plane(sps), t0i = plane(sps), t1r = plane(sps),
               t1i = plane(sps);
    kernels::pack_dual_tones(t0r.data(), t0i.data(), t1r.data(), t1i.data(),
                             sps, tone_a.data(), tone_b.data());
  }
  const auto taps = plane(kRealTaps);
  const auto tap_re = plane(kCplxTaps), tap_im = plane(kCplxTaps);
  std::vector<double> out_re(kBlock), out_im(kBlock);

  // Operand bytes each kernel touches per output sample (computed from
  // the operand sizes, not measured): reads of every input plane, and a
  // read plus a write of an accumulated output.
  const double d = sizeof(double);
  out["dsp.kernels.sync_corr.bytes_per_sample"] = 4 * d;
  out["dsp.kernels.dual_tone_mac.bytes_per_sample"] = (2 + 8) * d;
  out["dsp.kernels.cmac.bytes_per_sample"] = (2 + 4) * d;
  out["dsp.kernels.fir_real.bytes_per_sample"] =
      (kRealTaps * d + static_cast<double>(kRealTaps - 1 + kBlock) * 2 * d +
       kBlock * 2 * d) /
      kBlock;
  out["dsp.kernels.fir_cplx.bytes_per_sample"] =
      (kCplxTaps * 2 * d + static_cast<double>(kCplxTaps - 1 + kBlock) * 2 * d +
       kBlock * 2 * d) /
      kBlock;

  for (const kernels::Backend b :
       {kernels::Backend::kScalar, kernels::Backend::kSse2,
        kernels::Backend::kAvx2}) {
    const std::string prefix = std::string(".") + kernels::backend_name(b) +
                               ".ns_per_sample";
    const kernels::KernelTable* t = kernels::backend_table(b);
    if (t == nullptr) {
      // Not runnable on this host: the row reads 0.
      for (const char* k :
           {"sync_corr", "dual_tone_mac", "cmac", "fir_real", "fir_cplx"}) {
        out[std::string("dsp.kernels.") + k + prefix] = 0.0;
      }
      continue;
    }
    out["dsp.kernels.sync_corr" + prefix] =
        ns_per_call(2000, [&] {
          g_sink = g_sink + t->segmented_sync_correlation(
                                sig_re.data(), sig_im.data(), ref_re.data(),
                                ref_im.data(), sync_len, ref_energy);
        }) /
        static_cast<double>(sync_len);
    out["dsp.kernels.dual_tone_mac" + prefix] =
        ns_per_call(20000, [&] {
          const kernels::DualToneAccum a = t->dual_tone_mac(
              sig_re.data(), sig_im.data(), tone_a.data(), tone_b.data(), sps);
          g_sink = g_sink + a.c0_re;
        }) /
        static_cast<double>(sps);
    out["dsp.kernels.cmac" + prefix] =
        ns_per_call(20000, [&] {
          t->cmac(out_re.data(), out_im.data(), sig_re.data(), sig_im.data(),
                  0.5, -0.25, kBlock);
          g_sink = g_sink + out_re[0];
        }) /
        kBlock;
    out["dsp.kernels.fir_real" + prefix] =
        ns_per_call(2000, [&] {
          t->fir_block_real(taps.data(), kRealTaps, sig_re.data(),
                            sig_im.data(), out_re.data(), out_im.data(),
                            kBlock);
          g_sink = g_sink + out_re[0];
        }) /
        kBlock;
    out["dsp.kernels.fir_cplx" + prefix] =
        ns_per_call(2000, [&] {
          t->fir_block_cplx(tap_re.data(), tap_im.data(), kCplxTaps,
                            sig_re.data(), sig_im.data(), out_re.data(),
                            out_im.data(), kBlock);
          g_sink = g_sink + out_re[0];
        }) /
        kBlock;
  }
}

void eavesdrop_layers(std::map<std::string, double>& out) {
  // The fig9 packet shape: the IMD's data response to an interrogation,
  // captured with noise, decoded with genie timing.
  const hs::imd::ImdProfile profile = hs::imd::virtuoso_profile();
  const std::vector<std::uint8_t> payload(profile.data_chunk_bytes, 0x5A);
  const hs::phy::BitVec truth = hs::phy::encode_frame(
      hs::imd::make_data_response(profile.serial, 0, payload));
  const hs::dsp::Samples wave = hs::phy::fsk_modulate(profile.fsk, truth);
  constexpr std::size_t kOffset = 240;
  hs::dsp::Samples capture(kOffset + wave.size() + kOffset);
  std::mt19937_64 rng(9);
  std::normal_distribution<double> noise(0.0, 0.7);
  for (std::size_t i = 0; i < capture.size(); ++i) {
    capture[i] = hs::dsp::cplx{noise(rng), noise(rng)};
    if (i >= kOffset && i - kOffset < wave.size()) capture[i] += wave[i - kOffset];
  }
  out["adversary.eavesdrop_decode_us"] =
      ns_per_call(20, [&] {
        g_sink = g_sink + hs::adversary::eavesdrop_decode(profile.fsk, capture,
                                                          kOffset, truth)
                              .ber;
      }) /
      1e3;
  // Decodes per fig9 trial (one per eavesdropped packet), for its share
  // of a trial.
  out["adversary.eavesdrop_calls_per_trial"] =
      static_cast<double>(scenario(kFig9).units_per_trial);
}

}  // namespace perfbench
