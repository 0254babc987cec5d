// One repetition of one benchmark workload, run as its own process by
// perfbench/run.py. Modes:
//
//   timed   set up and deploy three times (alternating), then serve and
//           export once; print the host timings, virtual-clock figures,
//           digests and output checks.
//   traced  (traced build) time the calls into each layer from outside,
//           record spans around them and write the span log to
//           --spans-out; print the raw per-layer figures.
//   micro   per-call costs of the innermost kernels at the workload's
//           sizes, the untraced serve wall and run metadata.
//
// Every line on stdout is one JSON object, flushed as it is written, so
// a run killed by a signal keeps what it printed. Exit code 0 means the
// repetition ran; its output checks are fields of the "result" line.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "call_counters.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/placement.h"
#include "core/weight_mapper.h"
#include "data/encoding.h"
#include "obs/alerts.h"
#include "obs/lifecycle.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/timeseries.h"
#include "rf/channel.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "trace.h"
#include "workloads.h"

#ifndef PERFBENCH_TRACED
namespace perfbench {
CallCounts ReadCallCounts() { return {}; }
void ArmCallCounters(bool, bool) {}
bool CallCountersLinked() { return false; }
}  // namespace perfbench
#endif

namespace perfbench {
namespace {

using namespace metaai;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  std::string spans_out;
};

std::vector<int> Predictions(const Served& served) {
  std::vector<int> predicted;
  predicted.reserve(served.responses.size());
  for (const serve::ServeResponse& response : served.responses) {
    predicted.push_back(response.predicted);
  }
  return predicted;
}

/// Rendered exports of one serve call, as a CLI run writes them.
struct Exports {
  std::string requests;
  std::string timeseries;
  std::string alerts;
  double requests_s = 0.0;
  double timeseries_s = 0.0;
  double alerts_s = 0.0;

  double total_s() const { return requests_s + timeseries_s + alerts_s; }
  std::size_t bytes() const {
    return requests.size() + timeseries.size() + alerts.size();
  }
};

Exports Render(const Served& served) {
  Exports out;
  auto start = Clock::now();
  out.requests = obs::ToRequestsJsonl(served.request_log);
  out.requests_s = SecondsSince(start);
  start = Clock::now();
  out.timeseries = obs::ToTimeSeriesJsonl(served.timeseries);
  out.timeseries_s = SecondsSince(start);
  start = Clock::now();
  out.alerts = obs::health::ToAlertsJsonl(served.alerts);
  out.alerts_s = SecondsSince(start);
  return out;
}

/// Digests of one serve call: predictions in submission order and the
/// three exports.
void AddDigests(JsonLine& line, const Served& served, const Exports& exports) {
  line.Str("digest_predictions", Hex64(DigestInts(Predictions(served))))
      .Str("digest_requests", Hex64(Fnv1a64(exports.requests)))
      .Str("digest_timeseries", Hex64(Fnv1a64(exports.timeseries)))
      .Str("digest_alerts", Hex64(Fnv1a64(exports.alerts)));
}

std::vector<double> StageMs(const obs::RequestLog& log,
                            obs::RequestStage stage) {
  std::vector<double> out;
  out.reserve(log.traces.size());
  for (const obs::RequestTrace& trace : log.traces) {
    out.push_back(trace.stage(stage) * 1e3);
  }
  return out;
}

std::vector<double> LatencyMs(const obs::RequestLog& log) {
  std::vector<double> out;
  out.reserve(log.traces.size());
  for (const obs::RequestTrace& trace : log.traces) {
    double total = 0.0;
    for (const double s : trace.stage_s) total += s;
    out.push_back(total * 1e3);
  }
  return out;
}

std::size_t CountCorrect(const Workload& w, const Served& served) {
  std::size_t correct = 0;
  for (std::size_t i = 0; i < served.responses.size(); ++i) {
    const int predicted = served.responses[i].predicted;
    if (predicted >= 0 && predicted == w.requests[i].label) ++correct;
  }
  return correct;
}

std::size_t CountAnswered(const Served& served) {
  std::size_t answered = 0;
  for (const serve::ServeResponse& response : served.responses) {
    if (response.predicted >= 0) ++answered;
  }
  return answered;
}

/// Build and host facts recorded with every result.
void AddMetadata(JsonLine& line, int threads) {
  line.Int("nproc", std::thread::hardware_concurrency())
      .Str("compiler", PERFBENCH_COMPILER)
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("simd_level", simd::LevelName(simd::ActiveLevel()))
      .Bool("metaai_obs", PERFBENCH_OBS)
      .Int("threads", static_cast<std::uint64_t>(threads));
}

/// The per-request streams a serve call with ServeSeed forks.
std::vector<Rng> RequestStreams(const Workload& w, std::size_t n) {
  Rng base(ServeSeed(w));
  return par::ForkRngs(base, n);
}

// ---------------------------------------------------------------- timed

int RunTimed(const Args& args) {
  par::SetDefaultThreadCount(WorkloadThreads(args.workload));
  // Set-up and deployment are short and the host is noisy, so each
  // repetition samples them several times, alternating, and reports
  // every sample; the last workload and deployment serve.
  constexpr int kSamples = 3;
  std::vector<double> setup_s;
  std::vector<double> deploy_s;
  std::optional<Workload> workload;
  std::optional<Deployed> deployment;
  for (int k = 0; k < kSamples; ++k) {
    deployment.reset();
    workload.reset();
    auto start = Clock::now();
    workload.emplace(Setup(args.workload, args.seed));
    setup_s.push_back(SecondsSince(start));
    if (k == 0) {
      Emit(JsonLine()
               .Str("event", "setup")
               .Int("submitted", workload->requests.size()));
    }
    start = Clock::now();
    deployment.emplace(Deploy(*workload));
    deploy_s.push_back(SecondsSince(start));
  }
  const Workload& w = *workload;
  const Deployed& deployed = *deployment;

  Rng rng(ServeSeed(w));
  const auto start = Clock::now();
  const Served served = Serve(w, deployed, w.requests, rng);
  const double run_s = SecondsSince(start);
  const Exports exports = Render(served);
  const double serve_s = SecondsSince(start);

  // Spot check: a seeded sample of requests replayed through the
  // deployment that served them, with the same streams, must predict
  // what the serve call answered.
  const std::vector<Rng> streams = RequestStreams(w, w.requests.size());
  std::size_t replay_mismatches = 0;
  constexpr std::size_t kSpotChecks = 32;
  for (std::size_t k = 0; k < kSpotChecks; ++k) {
    const std::size_t i = (k * 7919 + args.seed) % w.requests.size();
    if (served.responses[i].predicted < 0) continue;
    Rng stream = streams[i];
    const double offset_us = w.sync.SampleOffsetUs(stream);
    const core::SoftDecision decision =
        RouteRequest(deployed, w.requests[i])
            .deployment->ClassifyWithMargin(w.requests[i].pixels, offset_us,
                                            stream);
    if (decision.predicted != served.responses[i].predicted) {
      ++replay_mismatches;
    }
  }

  const mts::ConfigCache::Stats cache = deployed.cache->stats();
  std::size_t kinds[4] = {0, 0, 0, 0};
  for (const TenantKind kind : w.kinds) ++kinds[static_cast<int>(kind)];
  JsonLine line;
  line.Str("event", "result")
      .Nums("setup_s", setup_s)
      .Num("train_s", w.train_s)
      .Nums("deploy_s", deploy_s)
      .Num("run_s", run_s)
      .Num("export_s", exports.total_s())
      .Num("serve_s", serve_s)
      .Int("submitted", served.submitted)
      .Int("served", served.served)
      .Int("rejected", served.rejected)
      .Int("answered", CountAnswered(served))
      .Int("correct", CountCorrect(w, served))
      .Int("frames", served.frames)
      .Int("replay_checked", kSpotChecks)
      .Int("replay_mismatches", replay_mismatches)
      .Num("accuracy_floor", w.accuracy_floor)
      .Num("virt_goodput_slo_rps", served.goodput_slo_rps)
      .Int("cache_hits", cache.hits)
      .Int("cache_misses", cache.misses)
      .Int("cache_nearest_hits", cache.nearest_hits)
      .Int("tenants", w.kinds.size())
      .Int("tenants_base", kinds[0])
      .Int("tenants_duplicate", kinds[1])
      .Int("tenants_near_duplicate", kinds[2])
      .Int("tenants_distinct", kinds[3]);
  AddMetadata(line, w.threads);
  AddDigests(line, served, exports);
  line.Nums("virt_latency_ms", LatencyMs(served.request_log));
  Emit(line);
  return 0;
}

// ---------------------------------------------------------------- micro

/// Calls `fn` in batches until `budget_s` has passed; ns per call.
template <typename Fn>
double NsPerCall(double budget_s, std::size_t batch, Fn&& fn) {
  std::size_t calls = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  while (elapsed < budget_s) {
    for (std::size_t i = 0; i < batch; ++i) fn();
    calls += batch;
    elapsed = SecondsSince(start);
  }
  return elapsed * 1e9 / static_cast<double>(calls);
}

int RunMicro(const Args& args) {
  par::SetDefaultThreadCount(WorkloadThreads(args.workload));
  const Workload w = Setup(args.workload, args.seed);
  Rng rng(args.seed);
  volatile double sink = 0.0;

  const double complex_normal_ns = NsPerCall(0.3, 4096, [&] {
    sink = sink + rng.ComplexNormal(0.5).real();
  });

  const std::size_t atoms = w.panel_side * w.panel_side;
  std::vector<double> re(atoms);
  std::vector<double> im(atoms);
  std::vector<std::uint8_t> codes(atoms);
  for (std::size_t m = 0; m < atoms; ++m) {
    re[m] = rng.Normal();
    im[m] = rng.Normal();
    codes[m] = static_cast<std::uint8_t>(rng.Next() & 3u);
  }
  const double phased_sum_ns = NsPerCall(0.3, 1024, [&] {
    sink = sink +
           simd::PhasedSum(re.data(), im.data(), codes.data(), atoms).real();
  });

  const rf::MultipathChannel channel(rf::OfficeProfile(), 1e-3, 1.0, rng);
  double freq_hz = 0.0;
  const double multipath_ns = NsPerCall(0.3, 1024, [&] {
    sink = sink + channel.Response(freq_hz).real();
    freq_hz += 1.0;
  });

  JsonLine line;
  line.Str("event", "micro")
      .Num("complex_normal_ns", complex_normal_ns)
      .Num("phased_sum_ns", phased_sum_ns)
      .Int("phased_sum_atoms", atoms)
      .Num("multipath_response_ns", multipath_ns);

  // The untraced serve wall, against which the traced run's is compared.
  const Deployed deployed = Deploy(w);
  Rng serve_rng(ServeSeed(w));
  const auto start = Clock::now();
  Serve(w, deployed, w.requests, serve_rng);
  line.Num("run_s", SecondsSince(start));
  AddMetadata(line, w.threads);
  Emit(line);
  return 0;
}

// --------------------------------------------------------------- traced

/// Thread count the scaling efficiency compares against 1 thread.
constexpr int kScalingThreads = 4;

/// Serves the trace prefix once at `threads` threads under a span.
struct PrefixRun {
  double wall_s = 0.0;
  std::string digest;
  std::vector<int> predictions;
};

PrefixRun ServePrefix(const Workload& w, const Deployed& deployed,
                      int threads, SpanLog& spans, std::string_view name) {
  const par::ScopedThreadCount scoped(threads);
  const std::span<const serve::ServeRequest> prefix(w.requests.data(),
                                                    w.prefix);
  Rng rng(ServeSeed(w));
  const int span = spans.Open(name, SpanLog::kNoParent, threads);
  const Served served = Serve(w, deployed, prefix, rng);
  PrefixRun run;
  run.wall_s = spans.Close(span);
  const Exports exports = Render(served);
  run.predictions = Predictions(served);
  run.digest = Hex64(Fnv1a64(
      exports.alerts,
      Fnv1a64(exports.timeseries,
              Fnv1a64(exports.requests, DigestInts(run.predictions)))));
  return run;
}

/// One request replayed as ClassifyWithMargin does it, call by call,
/// each call under its own span: encode, one TransmitSequence per round,
/// then scoring (the classify span's self time).
struct Replayed {
  int predicted = -1;
  std::uint64_t symbols = 0;
};

Replayed ReplayDecomposed(const Workload& w, const Deployed& deployed,
                          std::size_t i, Rng stream, SpanLog& spans,
                          int parent) {
  const serve::ServeRequest& request = w.requests[i];
  const core::Deployment& deployment =
      *RouteRequest(deployed, request).deployment;
  const sim::OtaLink& link = deployment.link();
  const core::MappedSchedules& schedules = deployment.schedules();
  const int request_span = spans.Open("replay.request", parent, request.id);
  const double offset_us = w.sync.SampleOffsetUs(stream);
  const int classify_span =
      spans.Open("core.classify.decomposed", request_span, request.id);
  int span = spans.Open("data.encode", classify_span, request.id);
  const std::vector<nn::Complex> data = data::EncodeSample(
      request.pixels, link.config().data_modulation.value());
  spans.Close(span);
  Replayed out;
  std::vector<double> scores(deployment.num_classes(), 0.0);
  static const sim::LayerSchedules kNoUpperLayers;
  for (std::size_t r = 0; r < schedules.rounds.size(); ++r) {
    const sim::LayerSchedules& upper = schedules.upper_rounds.empty()
                                           ? kNoUpperLayers
                                           : schedules.upper_rounds[r];
    span = spans.Open("sim.link.transmit", classify_span, request.id);
    const ComplexMatrix z = link.TransmitSequence(
        data, schedules.rounds[r], upper, offset_us, stream);
    spans.Close(span);
    out.symbols += data.size();
    const std::vector<int>& outputs = schedules.outputs[r];
    for (std::size_t o = 0; o < outputs.size(); ++o) {
      if (outputs[o] < 0) continue;
      sim::Complex acc{0.0, 0.0};
      for (std::size_t k = 0; k < z.cols(); ++k) acc += z(o, k);
      scores[static_cast<std::size_t>(outputs[o])] = std::abs(acc);
    }
  }
  out.predicted = static_cast<int>(
      std::max_element(scores.begin(), scores.end()) - scores.begin());
  spans.Close(classify_span);
  spans.Close(request_span);
  return out;
}

int RunTraced(const Args& args) {
  SpanLog spans;
  const int threads = WorkloadThreads(args.workload);
  par::SetDefaultThreadCount(threads);
  JsonLine line;
  line.Str("event", "traced").Bool("call_counters", CallCountersLinked());
  bool ok = true;
  std::vector<std::string> failures;
  const auto fail = [&](const std::string& what) {
    ok = false;
    failures.push_back(what);
  };

  int id = spans.Open("setup", SpanLog::kNoParent);
  const Workload w = Setup(args.workload, args.seed);
  line.Num("setup_s", spans.Close(id)).Num("core.train_s", w.train_s);
  Emit(JsonLine().Str("event", "setup").Int("submitted", w.requests.size()));

  id = spans.Open("deploy", SpanLog::kNoParent);
  const Deployed deployed = Deploy(w);
  line.Num("deploy_s", spans.Close(id));
  const mts::ConfigCache::Stats cache = deployed.cache->stats();
  line.Num("mts.cache.hit_rate", cache.HitRate())
      .Int("mts.cache.nearest_hits", cache.nearest_hits)
      .Int("mts.cache.misses", cache.misses);

  // The full serve call at the workload's thread count, then its exports.
  ArmCallCounters(false, true);
  Rng rng(ServeSeed(w));
  const int run_span = spans.Open("serve.run", SpanLog::kNoParent);
  const Served served = Serve(w, deployed, w.requests, rng);
  const double run_s = spans.Close(run_span);
  ArmCallCounters(false, false);
  const int export_span = spans.Open("obs.export", SpanLog::kNoParent);
  const Exports exports = Render(served);
  spans.Close(export_span);
  line.Num("serve.run_s", run_s)
      .Int("serve.frames", served.frames)
      .Int("serve.served", served.served)
      .Int("common.par.fanouts", ReadCallCounts().parallel_for)
      .Num("obs.export_ms.requests", exports.requests_s * 1e3)
      .Num("obs.export_ms.timeseries", exports.timeseries_s * 1e3)
      .Num("obs.export_ms.alerts", exports.alerts_s * 1e3)
      .Num("obs.export_mb", static_cast<double>(exports.bytes()) / 1e6)
      .Nums("virt_queue_wait_ms",
            StageMs(served.request_log, obs::RequestStage::kQueueWait))
      .Nums("virt_batching_ms",
            StageMs(served.request_log, obs::RequestStage::kBatching));
  if (CountAnswered(served) != served.submitted) {
    fail("unanswered requests in the full serve");
  }

  // Per-shard replays (fleets only): each shard's sub-trace, with the
  // streams the front door forked for it, through the shard runtime's
  // Run. A bare runtime is its own single shard: its Run is the call
  // timed above.
  const std::vector<Rng> streams = RequestStreams(w, w.requests.size());
  const std::size_t num_shards =
      deployed.fleet ? deployed.fleet->num_shards() : 1;
  double shard_sum_s = run_s;
  if (deployed.fleet) {
    std::vector<std::vector<serve::ServeRequest>> sub(num_shards);
    std::vector<std::vector<Rng>> sub_streams(num_shards);
    std::vector<std::vector<std::size_t>> globals(num_shards);
    for (std::size_t i = 0; i < w.requests.size(); ++i) {
      serve::ServeRequest routed = w.requests[i];
      const auto [shard, local] =
          deployed.fleet->Route(routed.client, routed.arrival_s);
      routed.client = local;
      sub[shard].push_back(std::move(routed));
      sub_streams[shard].push_back(streams[i]);
      globals[shard].push_back(i);
    }
    shard_sum_s = 0.0;
    std::size_t shard_mismatches = 0;
    const int shards_span =
        spans.Open("fleet.shard_replays", SpanLog::kNoParent);
    for (std::size_t s = 0; s < num_shards; ++s) {
      double shard_s = 0.0;
      if (!sub[s].empty()) {
        const int shard_span = spans.Open("fleet.shard_run", shards_span, s);
        const serve::ServeResult result = deployed.fleet->shard(s).Run(
            sub[s], w.sync, std::span<Rng>(sub_streams[s]));
        shard_s = spans.Close(shard_span);
        for (std::size_t j = 0; j < result.responses.size(); ++j) {
          if (result.responses[j].predicted !=
              served.responses[globals[s][j]].predicted) {
            ++shard_mismatches;
          }
        }
      }
      shard_sum_s += shard_s;
      line.Num("fleet.shard_run_s." + std::to_string(s), shard_s);
    }
    spans.Close(shards_span);
    if (shard_mismatches > 0) fail("per-shard replay predictions differ");
  } else {
    line.Num("fleet.shard_run_s.0", run_s);
  }
  line.Int("fleet.shards", num_shards)
      .Num("fleet.shard_overlap", shard_sum_s / run_s)
      .Num("fleet.merge_s", run_s - shard_sum_s);

  // Fixed prefix at 1 and 4 threads (scaling and thread identity), then
  // at the workload's thread count (1 or 4) with a metrics registry and
  // once more without.
  const PrefixRun one = ServePrefix(w, deployed, 1, spans, "serve.prefix");
  const PrefixRun four =
      ServePrefix(w, deployed, kScalingThreads, spans, "serve.prefix");
  const PrefixRun& plain = threads == 1 ? one : four;
  double with_registry_s = 0.0;
  {
    obs::Registry registry;
    const obs::ScopedRegistry scoped(&registry);
    with_registry_s =
        ServePrefix(w, deployed, threads, spans, "serve.prefix.registry")
            .wall_s;
  }
  const double plain_s =
      std::min(plain.wall_s,
               ServePrefix(w, deployed, threads, spans, "serve.prefix").wall_s);
  line.Int("prefix_requests", w.prefix)
      .Num("prefix_4t_s", four.wall_s)
      .Num("common.par.scaling_eff",
           one.wall_s / (static_cast<double>(kScalingThreads) * four.wall_s))
      .Num("obs.overhead_share", with_registry_s / plain_s - 1.0)
      .Str("prefix_digest_1t", one.digest)
      .Str("prefix_digest_4t", four.digest);
  if (one.digest != four.digest) {
    fail("prefix digests differ between thread counts");
  }

  // Call counts come from a short armed pass (counts per symbol are
  // exact on any sample); the timed replay below runs unarmed.
  constexpr std::size_t kCountedRequests = 32;
  SpanLog scratch_spans;
  std::uint64_t counted_symbols = 0;
  ArmCallCounters(true, false);
  for (std::size_t i = 0; i < std::min(kCountedRequests, w.prefix); ++i) {
    counted_symbols += ReplayDecomposed(w, deployed, i, streams[i],
                                        scratch_spans, SpanLog::kNoParent)
                           .symbols;
  }
  ArmCallCounters(false, false);
  const CallCounts counts = ReadCallCounts();

  // Data-plane replay of the prefix on this thread, request by request:
  // a whole ClassifyWithMargin call, then the same request decomposed
  // into encode, one TransmitSequence per round and scoring. Alternating
  // keeps host drift out of the comparison between the two. Requests go
  // shard by shard, in the order a 1-thread Fleet::Run serves them, so
  // the replay touches each shard's schedules as the serve call does.
  std::vector<std::size_t> order(w.prefix);
  for (std::size_t i = 0; i < w.prefix; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return RouteRequest(deployed, w.requests[a]).shard <
                            RouteRequest(deployed, w.requests[b]).shard;
                   });
  std::size_t replay_mismatches = 0;
  std::uint64_t symbols = 0;
  const int direct_root = spans.Open("replay.direct", SpanLog::kNoParent);
  const int decomposed_root =
      spans.Open("replay.decomposed", SpanLog::kNoParent);
  for (const std::size_t i : order) {
    const serve::ServeRequest& request = w.requests[i];
    Rng stream = streams[i];
    const int span = spans.Open("core.classify", direct_root, request.id);
    const double offset_us = w.sync.SampleOffsetUs(stream);
    const core::SoftDecision decision =
        RouteRequest(deployed, request)
            .deployment->ClassifyWithMargin(request.pixels, offset_us, stream);
    spans.Close(span);
    const Replayed replayed =
        ReplayDecomposed(w, deployed, i, streams[i], spans, decomposed_root);
    symbols += replayed.symbols;
    if (decision.predicted != one.predictions[i]) ++replay_mismatches;
    if (replayed.predicted != one.predictions[i]) ++replay_mismatches;
  }
  spans.Close(decomposed_root);
  spans.Close(direct_root);
  // The 1-thread serve wall the replay is accounted against brackets it
  // (mean of a serve before and one after), so host drift during the
  // replay does not read as unaccounted time.
  const PrefixRun one_after =
      ServePrefix(w, deployed, 1, spans, "serve.prefix");
  if (one_after.digest != one.digest) {
    fail("prefix digests differ between repeated 1-thread serves");
  }
  line.Num("prefix_1t_s", 0.5 * (one.wall_s + one_after.wall_s));
  const auto per_symbol = [&](std::uint64_t calls) {
    return static_cast<double>(calls) / static_cast<double>(counted_symbols);
  };
  line.Int("replay_symbols", symbols)
      .Int("replay_mismatches", replay_mismatches)
      .Num("common.rng.draws_per_symbol",
           per_symbol(counts.complex_normal))
      .Num("simd.phased_sum_calls_per_symbol",
           per_symbol(counts.phased_sum))
      .Num("rf.multipath_calls_per_symbol",
           per_symbol(counts.multipath_response));
  if (replay_mismatches > 0) fail("data-plane replay predictions differ");

  // Control-plane layers, each timed through its public entry point on
  // this workload's shapes.
  const serve::Runtime& shard0 = ShardRuntime(deployed, 0);
  const std::vector<std::size_t> pending(shard0.num_clients(), 1);
  line.Num("core.scheduler.frame_build_us",
           NsPerCall(0.2, 256, [&] {
             shard0.scheduler().BuildFrame(
                 core::AllocateSlots(pending, shard0.options().frame_budget));
           }) * 1e-3);
  const core::PlacementProblem problem = PlacementProblemOf(w);
  line.Num("core.placement_us",
           NsPerCall(0.2, 256, [&] { core::PackBins(problem).ok(); }) * 1e-3);

  // Mapping: tenant 0's weights on its link, cold; then a near-duplicate
  // warm-started from a cache that holds the original. Both on the
  // deployment's thread count.
  const par::ScopedThreadCount deploy_threads(kDeployThreads);
  const core::Deployment& first =
      *RouteRequest(deployed, serve::ServeRequest{}).deployment;
  const ComplexMatrix& weights = w.models[0].network.weights();
  core::MappingOptions cold;
  cold.scheme = core::MappingScheme::kSequential;
  id = spans.Open("core.map.cold", SpanLog::kNoParent);
  const core::MappedSchedules cold_map =
      core::MapWeights(weights, first.link(), cold);
  line.Num("core.map.cold_solve_ms", spans.Close(id) * 1e3)
      .Int("core.map.sweeps_cold",
           static_cast<std::uint64_t>(cold_map.total_sweeps));
  mts::ConfigCache warm_cache;
  core::MappingOptions warm = cold;
  warm.cache = &warm_cache;
  warm.warm_start_distance = kWarmStartDistance;
  core::MapWeights(weights, first.link(), warm);
  ComplexMatrix near = weights;
  Rng perturb(args.seed);
  PerturbWeights(near, kNearDuplicateNoise, perturb);
  id = spans.Open("core.map.warm", SpanLog::kNoParent);
  const core::MappedSchedules warm_map =
      core::MapWeights(near, first.link(), warm);
  line.Num("core.map.warm_solve_ms", spans.Close(id) * 1e3)
      .Int("core.map.sweeps_warm",
           static_cast<std::uint64_t>(warm_map.total_sweeps));
  if (!warm_map.warm_started) fail("near-duplicate mapping was not warm");

  line.Bool("ok", ok);
  std::string joined;
  for (const std::string& f : failures) joined += (joined.empty() ? "" : "; ") + f;
  line.Str("failures", joined);
  if (!args.spans_out.empty()) {
    std::ofstream out(args.spans_out);
    spans.WriteJsonl(out);
    if (!out.good()) {
      std::fprintf(stderr, "cannot write %s\n", args.spans_out.c_str());
      return 1;
    }
  }
  Emit(line);
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: metaai_perfbench --mode timed|traced|micro "
               "--workload NAME --seed N [--spans-out PATH]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--mode") {
      args.mode = value;
    } else if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--spans-out") {
      args.spans_out = value;
    } else {
      return perfbench::Usage();
    }
  }
  if (args.workload.empty() || args.mode.empty()) return perfbench::Usage();
  if (!perfbench::FnvSelfCheck()) {
    std::fprintf(stderr, "FNV-1a digest self-check failed\n");
    return 3;
  }
  try {
    if (args.mode == "timed") return perfbench::RunTimed(args);
    if (args.mode == "micro") return perfbench::RunMicro(args);
    if (args.mode == "traced") return perfbench::RunTraced(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "metaai_perfbench: %s\n", e.what());
    return 1;
  }
  return perfbench::Usage();
}
