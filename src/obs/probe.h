// Flight recorder for the simulated RF path: typed probe records
// collected in a bounded ring buffer (ProbeSink) and exported as
// "metaai.probes.v1" JSONL.
//
// Where the metrics Registry aggregates (counters, histograms), probes
// keep the *signal evidence* a physical-layer debugging session needs:
// per-round EVM, per-subcarrier SNR, sync-offset timelines, solver
// objective-vs-sweep curves, metasurface phase-config dumps and sampled
// constellation points. Every value is derived from seeded computation,
// so two identically-seeded runs record byte-identical probe streams.
//
// Call sites go through obs/obs.h:
//
//   if (obs::ProbesEnabled()) {
//     obs::Probe({.kind = obs::ProbeKind::kEvm, .site = "link.transmit",
//                 .values = {{"evm_rms", evm}}, .series = per_obs_evm});
//   }
//
// The ProbesEnabled() guard keeps payload computation out of the hot
// path when no sink is installed, and with -DMETAAI_OBS=OFF it is a
// constant false so the whole block compiles away.
//
// Threading contract: ProbeSink::Add and Snapshot are mutex-guarded and
// safe to call from concurrent workers (e.g. parallel bench paths); the
// seq order is the global arrival order under that mutex.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace metaai::obs {

/// What a probe record carries; serialized by name in the JSONL export.
enum class ProbeKind {
  kScalar,         // generic named scalars
  kEvm,            // error-vector magnitude of one transmission
  kSubcarrierSnr,  // per-observation (subcarrier/antenna) SNR in dB
  kSyncOffset,     // one sampled MTS clock offset (timeline entry)
  kSolverSweep,    // solver objective after each coordinate sweep
  kPhaseConfig,    // metasurface phase-code dump for one schedule entry
  kConstellation,  // sampled received constellation points (re/im pairs)
  kSpectrum,       // per-subcarrier power of one OFDM symbol
  kFault,          // fault diagnosis / recovery event (stuck counts, WDD)
  kServe,          // serving-runtime event (frame dispatch, admission)
  kSloViolation,   // a served request missed its tenant's latency SLO
};

std::string_view ProbeKindName(ProbeKind kind);

/// One flight-recorder entry: a kind, the instrumentation site
/// (`subsystem.point`), named scalar values and an optional ordered
/// series payload (what the series holds is fixed per kind; see the
/// schema note in EXPERIMENTS.md).
struct ProbeRecord {
  ProbeKind kind = ProbeKind::kScalar;
  /// Assigned by the sink on Add: global arrival index (never reused,
  /// so drops are visible as seq gaps at the front of the ring).
  std::uint64_t seq = 0;
  std::string site;
  std::vector<std::pair<std::string, double>> values;
  std::vector<double> series;

  bool operator==(const ProbeRecord&) const = default;
};

/// Bounded ring buffer of probe records: Add keeps the newest
/// `capacity` records and counts what it evicted. Thread-safe.
class ProbeSink {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  explicit ProbeSink(std::size_t capacity = kDefaultCapacity);
  ProbeSink(const ProbeSink&) = delete;
  ProbeSink& operator=(const ProbeSink&) = delete;

  /// Stamps `record.seq` and appends it, evicting the oldest record
  /// when full.
  void Add(ProbeRecord record);

  /// Retained records, oldest first.
  std::vector<ProbeRecord> Snapshot() const;

  /// Moves the retained records out (oldest first) and clears the ring;
  /// total/dropped keep counting across the drain. Used by
  /// obs::DeterministicParallelFor to re-play per-task buffers into the
  /// parent sink without copying payloads.
  std::vector<ProbeRecord> TakeAll();

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const;
  /// Records ever added / evicted by the ring wrapping.
  std::uint64_t total() const;
  std::uint64_t dropped() const;

  void Clear();

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<ProbeRecord> ring_;  // circular, ring_[head_] is oldest
  std::size_t head_ = 0;
  std::uint64_t next_seq_ = 0;
};

/// Serializes the sink as "metaai.probes.v1" JSONL: a header line
///   {"schema":"metaai.probes.v1","capacity":C,"total":T,"dropped":D}
/// followed by one line per retained record, oldest first:
///   {"seq":S,"kind":"<kind>","site":"<site>",
///    "values":{...}[,"series":[...]]}
/// ("series" is omitted when empty.) Identical sink contents serialize
/// to identical bytes.
std::string ToProbesJsonl(const ProbeSink& sink);

}  // namespace metaai::obs
