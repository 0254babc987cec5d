// Export of telemetry state: JSON (machine-readable, schema
// "metaai.obs.v1"), a Chrome trace, CSV (one row per instrument) and a
// console summary table, plus the pieces every other export in this
// library shares:
//   - one serializer per format, returning the document as a string
//     (ToJson here; ToRequestsJsonl, ToTimeSeriesJsonl,
//     health::ToAlertsJsonl and ToProbesJsonl beside their data types);
//   - one file writer, WriteTextFile;
//   - one reader: ParseJson for single documents and ParseJsonl for the
//     JSONL streams (a schema header line, then one record per line),
//     with Member and JsonInteger for checked field access.
// The reader rejects malformed or hostile bytes — nesting deeper than
// kMaxJsonDepth, non-integral or out-of-range integer fields, bad
// escapes — with CheckError, never a crash.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/table.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace metaai::obs {

/// Canonical JSON scalar formatting shared by every exporter in this
/// library: shortest round-trippable numbers (integers without an
/// exponent, otherwise %.17g) and deterministic string escaping (the
/// result includes the surrounding quotes).
std::string JsonNumber(double value);
std::string JsonString(std::string_view s);

/// Serializes a registry snapshot (and, when `tracer` is non-null, its
/// spans) as one JSON object:
///   { "schema": "metaai.obs.v1",
///     "counters":   { "<name>": <integer>, ... },
///     "gauges":     { "<name>": <number>, ... },
///     "histograms": { "<name>": { "lower": n, "upper_edges": [...],
///                                 "bucket_counts": [...],
///                                 "count": n, "sum": n }, ... },
///     "spans":      [ { "name": s, "start_ns": n, "duration_ns": n,
///                       "depth": n[, "args": {...}] }, ... ] }  // tracer
/// Identical snapshots serialize to identical bytes.
std::string ToJson(const RegistrySnapshot& snapshot,
                   const Tracer* tracer = nullptr);

/// Chrome-trace ("Trace Event Format", chrome://tracing and Perfetto
/// compatible) export of a tracer's spans: a JSON array holding one
/// complete ("X") event per closed span — still-open spans emit begin
/// ("B") events — with microsecond timestamps, pid/tid 0, and an args
/// object carrying the span's nesting depth plus any AddSpanArg
/// annotations. Identical span lists serialize to identical bytes, so
/// ManualClock traces are byte-reproducible.
std::string ToChromeTrace(const Tracer& tracer);

/// CSV with header "name,kind,value,count,sum,p50,p95": counters and
/// gauges fill `value`; histograms fill count/sum and the percentiles.
std::string ToCsv(const RegistrySnapshot& snapshot);

/// Writes `text` to `path`, replacing any existing file. The one file
/// writer behind every export: pair it with a To* serializer, e.g.
/// WriteTextFile(path, ToProbesJsonl(sink)). Returns false on I/O
/// failure.
bool WriteTextFile(const std::string& path, std::string_view text);

/// Compact console summary built on common/table.
Table SummaryTable(const RegistrySnapshot& snapshot);

/// Minimal JSON value for reading back exported documents. Supports the
/// subset this library emits: objects, arrays, strings, numbers, bools,
/// null. Object keys keep insertion order.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// Member lookup on objects; null when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
};

/// Deepest array/object nesting ParseJson accepts. The deepest document
/// this library emits (BENCH_*.json) nests about 5 levels.
inline constexpr std::size_t kMaxJsonDepth = 64;

/// Parses `text`; throws CheckError on malformed input, trailing junk or
/// nesting deeper than kMaxJsonDepth.
JsonValue ParseJson(std::string_view text);

/// Member lookup that throws CheckError naming `key` when absent.
const JsonValue& Member(const JsonValue& object, std::string_view key);

/// Reads an integer field as `Int`: throws CheckError unless `value` is
/// a finite, integral number that `Int` can hold. Every integer a reader
/// takes from external bytes goes through here, so no float-to-integer
/// cast sees an out-of-range value.
double CheckedJsonInteger(const JsonValue& value, double lo,
                          double hi_exclusive);
template <typename Int>
Int JsonInteger(const JsonValue& value) {
  static_assert(std::is_integral_v<Int>);
  // The exclusive bound is max() + 1, a power of two and so exact in a
  // double. For 64-bit types max() itself already rounds up to it and
  // adding 1.0 leaves it there.
  return static_cast<Int>(CheckedJsonInteger(
      value, static_cast<double>(std::numeric_limits<Int>::min()),
      static_cast<double>(std::numeric_limits<Int>::max()) + 1.0));
}

/// A parsed JSONL stream: the header object and one value per record.
struct JsonlDocument {
  JsonValue header;
  std::vector<JsonValue> records;
};

/// Parses a JSONL stream whose first line is a header object with
/// "schema" == `schema`; every further line is one record. When the
/// header carries "count" it must equal the number of record lines.
/// Throws CheckError (prefixed with the schema name) on an empty
/// document, a foreign schema, a count mismatch or a malformed line.
JsonlDocument ParseJsonl(std::string_view text, std::string_view schema);

/// Rebuilds a registry snapshot from a "metaai.obs.v1" document (the
/// inverse of ToJson, minus spans). Throws CheckError on schema
/// mismatch or an inconsistent histogram (bucket_counts must hold one
/// more entry than upper_edges and sum to count).
RegistrySnapshot SnapshotFromJson(const JsonValue& document);

}  // namespace metaai::obs
