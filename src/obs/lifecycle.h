// Request-lifecycle observability for the serving stack.
//
// A RequestTrace is minted by serve::Runtime at admission and follows
// one request through the whole pipeline, recording how much virtual
// time each stage consumed:
//
//   admission  — arrival until the admission scan picked the request up
//                (the clock only advances at frame boundaries, so a
//                request arriving mid-frame waits here first);
//   queue_wait — admitted and sitting in the bounded per-client FIFO
//                until a TDMA frame granted it a slot;
//   batching   — frame dispatch until this request's back-to-back
//                position inside its client's slot starts transmitting;
//   solve      — on-demand solver time charged to this request. The
//                runtime maps every tenant's weights at construction,
//                so today this is 0 and the `cache_hit` flag records
//                the mapping's provenance instead (true when the
//                tenant's configuration was restored from
//                mts::ConfigCache rather than solved fresh);
//   airtime    — OTA transmission (computation happens here);
//   demod      — server-side accumulation/readout after the last
//                symbol (sim::EnergyModel::DemodLatencyS).
//
// Latency() — the end-to-end latency, arrival to readout — is exactly
// the stage sum, an invariant the serve tests pin. energy_j is the
// per-request estimate from the link budget (radiated Tx power over the
// airtime + MTS pattern switching + server readout).
//
// Everything is virtual-time, derived from seeded computation, so a
// trace set — and its "metaai.requests.v1" JSONL export — is
// byte-identical across thread counts, frame budgets and cache state.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/quantiles.h"

namespace metaai::obs {

/// Lifecycle stages, in pipeline order (array index order).
enum class RequestStage {
  kAdmission = 0,
  kQueueWait,
  kBatching,
  kSolve,
  kAirtime,
  kDemod,
};

inline constexpr std::size_t kNumRequestStages = 6;

std::string_view RequestStageName(RequestStage stage);

/// One served request's journey through the pipeline.
struct RequestTrace {
  std::uint64_t id = 0;
  /// Index into the runtime's client list.
  std::uint32_t tenant = 0;
  /// Whether this tenant's configuration came from mts::ConfigCache.
  bool cache_hit = false;
  double arrival_s = 0.0;
  /// Tenant's latency target; 0 = no SLO.
  double slo_s = 0.0;
  /// Virtual time spent per stage, indexed by RequestStage.
  std::array<double, kNumRequestStages> stage_s{};
  /// Per-request energy estimate from the link budget (J).
  double energy_j = 0.0;

  double stage(RequestStage s) const {
    return stage_s[static_cast<std::size_t>(s)];
  }
  double& stage(RequestStage s) {
    return stage_s[static_cast<std::size_t>(s)];
  }

  /// End-to-end latency (arrival -> readout): exactly the stage sum.
  double Latency() const;
  bool SloViolated() const { return slo_s > 0.0 && Latency() > slo_s; }

  bool operator==(const RequestTrace&) const = default;
};

/// A trace set with the tenant names the indices refer to — the unit of
/// "metaai.requests.v1" serialization.
struct RequestLog {
  std::vector<std::string> tenants;
  /// Served requests in submission order.
  std::vector<RequestTrace> traces;

  bool operator==(const RequestLog&) const = default;
};

/// p50/p99/p999 per stage plus end-to-end, from one pass over `traces`.
struct StageTails {
  std::array<TailDigest, kNumRequestStages> stage;
  TailDigest latency;
};

StageTails DigestStages(std::span<const RequestTrace> traces);

/// Serializes a request log as "metaai.requests.v1" JSONL: a header line
///   {"schema":"metaai.requests.v1","tenants":[...],"count":N}
/// followed by one line per trace, in order:
///   {"id":I,"tenant":T,"cache_hit":B,"arrival_s":A,"slo_s":S,
///    "stage_s":[6 numbers],"energy_j":E}
/// Identical logs serialize to identical bytes.
std::string ToRequestsJsonl(const RequestLog& log);

/// Parses a "metaai.requests.v1" document; throws CheckError on schema
/// mismatch or malformed lines.
RequestLog ParseRequestsJsonl(std::string_view text);

}  // namespace metaai::obs
