#include "obs/probe.h"

#include <sstream>

#include "common/check.h"
#include "obs/export.h"

namespace metaai::obs {

std::string_view ProbeKindName(ProbeKind kind) {
  switch (kind) {
    case ProbeKind::kScalar:
      return "scalar";
    case ProbeKind::kEvm:
      return "evm";
    case ProbeKind::kSubcarrierSnr:
      return "subcarrier_snr";
    case ProbeKind::kSyncOffset:
      return "sync_offset";
    case ProbeKind::kSolverSweep:
      return "solver_sweep";
    case ProbeKind::kPhaseConfig:
      return "phase_config";
    case ProbeKind::kConstellation:
      return "constellation";
    case ProbeKind::kSpectrum:
      return "spectrum";
    case ProbeKind::kFault:
      return "fault";
    case ProbeKind::kServe:
      return "serve";
    case ProbeKind::kSloViolation:
      return "slo_violation";
  }
  throw CheckError("unknown probe kind");
}

ProbeSink::ProbeSink(std::size_t capacity) : capacity_(capacity) {
  Check(capacity_ > 0, "probe sink capacity must be positive");
  // No up-front reserve: the ring grows on demand up to capacity_, so
  // short-lived sinks (per-task buffers in obs::DeterministicParallelFor)
  // stay cheap even with the 64 Ki default capacity.
}

void ProbeSink::Add(ProbeRecord record) {
  const std::lock_guard<std::mutex> lock(mutex_);
  record.seq = next_seq_++;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(record));
    return;
  }
  // Full: overwrite the oldest slot and advance the ring head.
  ring_[head_] = std::move(record);
  head_ = (head_ + 1) % capacity_;
}

std::vector<ProbeRecord> ProbeSink::Snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ProbeRecord> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::vector<ProbeRecord> ProbeSink::TakeAll() {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ProbeRecord> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(std::move(ring_[(head_ + i) % ring_.size()]));
  }
  ring_.clear();
  head_ = 0;
  return out;
}

std::size_t ProbeSink::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

std::uint64_t ProbeSink::total() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_seq_;
}

std::uint64_t ProbeSink::dropped() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_seq_ - ring_.size();
}

void ProbeSink::Clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  head_ = 0;
}

std::string ToProbesJsonl(const ProbeSink& sink) {
  const std::vector<ProbeRecord> records = sink.Snapshot();
  std::ostringstream os;
  os << "{\"schema\":\"metaai.probes.v1\",\"capacity\":" << sink.capacity()
     << ",\"total\":" << sink.total() << ",\"dropped\":" << sink.dropped()
     << "}\n";
  for (const ProbeRecord& record : records) {
    os << "{\"seq\":" << record.seq << ",\"kind\":\""
       << ProbeKindName(record.kind)
       << "\",\"site\":" << JsonString(record.site) << ",\"values\":{";
    for (std::size_t i = 0; i < record.values.size(); ++i) {
      const auto& [name, value] = record.values[i];
      os << (i > 0 ? "," : "") << JsonString(name) << ':'
         << JsonNumber(value);
    }
    os << '}';
    if (!record.series.empty()) {
      os << ",\"series\":[";
      for (std::size_t i = 0; i < record.series.size(); ++i) {
        os << (i > 0 ? "," : "") << JsonNumber(record.series[i]);
      }
      os << ']';
    }
    os << "}\n";
  }
  return os.str();
}

}  // namespace metaai::obs
