#include "obs/lifecycle.h"

#include <sstream>

#include "common/check.h"
#include "obs/export.h"

namespace metaai::obs {

std::string_view RequestStageName(RequestStage stage) {
  switch (stage) {
    case RequestStage::kAdmission:
      return "admission";
    case RequestStage::kQueueWait:
      return "queue_wait";
    case RequestStage::kBatching:
      return "batching";
    case RequestStage::kSolve:
      return "solve";
    case RequestStage::kAirtime:
      return "airtime";
    case RequestStage::kDemod:
      return "demod";
  }
  throw CheckError("unknown request stage");
}

double RequestTrace::Latency() const {
  double total = 0.0;
  for (const double s : stage_s) total += s;
  return total;
}

StageTails DigestStages(std::span<const RequestTrace> traces) {
  StageTails tails;
  std::vector<double> sample(traces.size(), 0.0);
  for (std::size_t s = 0; s < kNumRequestStages; ++s) {
    for (std::size_t i = 0; i < traces.size(); ++i) {
      sample[i] = traces[i].stage_s[s];
    }
    tails.stage[s] = DigestTails(sample);
  }
  for (std::size_t i = 0; i < traces.size(); ++i) {
    sample[i] = traces[i].Latency();
  }
  tails.latency = DigestTails(sample);
  return tails;
}

std::string ToRequestsJsonl(const RequestLog& log) {
  std::ostringstream os;
  os << "{\"schema\":\"metaai.requests.v1\",\"tenants\":[";
  for (std::size_t i = 0; i < log.tenants.size(); ++i) {
    os << (i > 0 ? "," : "") << JsonString(log.tenants[i]);
  }
  os << "],\"count\":" << log.traces.size() << "}\n";
  for (const RequestTrace& trace : log.traces) {
    os << "{\"id\":" << trace.id << ",\"tenant\":" << trace.tenant
       << ",\"cache_hit\":" << (trace.cache_hit ? "true" : "false")
       << ",\"arrival_s\":" << JsonNumber(trace.arrival_s)
       << ",\"slo_s\":" << JsonNumber(trace.slo_s) << ",\"stage_s\":[";
    for (std::size_t s = 0; s < kNumRequestStages; ++s) {
      os << (s > 0 ? "," : "") << JsonNumber(trace.stage_s[s]);
    }
    os << "],\"energy_j\":" << JsonNumber(trace.energy_j) << "}\n";
  }
  return os.str();
}

RequestLog ParseRequestsJsonl(std::string_view text) {
  const JsonlDocument document = ParseJsonl(text, "metaai.requests.v1");
  RequestLog log;
  for (const JsonValue& tenant : Member(document.header, "tenants").array) {
    log.tenants.push_back(tenant.string);
  }
  log.traces.reserve(document.records.size());
  for (const JsonValue& record : document.records) {
    RequestTrace trace;
    trace.id = JsonInteger<std::uint64_t>(Member(record, "id"));
    trace.tenant = JsonInteger<std::uint32_t>(Member(record, "tenant"));
    Check(trace.tenant < log.tenants.size(),
          "metaai.requests.v1: tenant index out of range");
    trace.cache_hit = Member(record, "cache_hit").boolean;
    trace.arrival_s = Member(record, "arrival_s").number;
    trace.slo_s = Member(record, "slo_s").number;
    const JsonValue& stages = Member(record, "stage_s");
    Check(stages.array.size() == kNumRequestStages,
          "metaai.requests.v1: stage_s must have one entry per stage");
    for (std::size_t s = 0; s < kNumRequestStages; ++s) {
      trace.stage_s[s] = stages.array[s].number;
    }
    trace.energy_j = Member(record, "energy_j").number;
    log.traces.push_back(std::move(trace));
  }
  return log;
}

}  // namespace metaai::obs
