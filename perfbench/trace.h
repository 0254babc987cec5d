// Benchmark-side instrumentation: an in-memory span log written out at
// exit, FNV-1a digests of outputs, and a one-line JSON writer for the
// protocol between a repetition and run.py. Nothing here reaches into
// the library.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// 64-bit FNV-1a over `bytes`, continuing from `hash`.
std::uint64_t Fnv1a64(std::string_view bytes,
                      std::uint64_t hash = 0xcbf29ce484222325ull);
/// Digest of an int sequence (little-endian 32-bit words, in order).
std::uint64_t DigestInts(const std::vector<int>& values);
std::string Hex64(std::uint64_t value);
/// True when Fnv1a64 reproduces the published FNV-1a test vectors.
bool FnvSelfCheck();

/// Spans recorded from the benchmark's own code around calls into the
/// library. Single-threaded: every span opens and closes on the thread
/// that owns the log.
class SpanLog {
 public:
  static constexpr int kNoParent = -1;

  SpanLog();

  /// Opens a span and returns its id (the parent of spans it causes).
  int Open(std::string_view name, int parent, std::uint64_t request = 0);
  /// Closes span `id` and returns its duration in seconds.
  double Close(int id);

  /// One JSON object per line: name, start_ns, end_ns, parent, request.
  void WriteJsonl(std::ostream& os) const;

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = kNoParent;
    std::uint64_t request = 0;
  };
  std::int64_t NowNs() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Builds one flat JSON object, field by field.
class JsonLine {
 public:
  JsonLine& Num(std::string_view key, double value);
  JsonLine& Int(std::string_view key, std::uint64_t value);
  JsonLine& Str(std::string_view key, std::string_view value);
  JsonLine& Bool(std::string_view key, bool value);
  JsonLine& Nums(std::string_view key, const std::vector<double>& values);
  /// The object, terminated by a newline.
  std::string str() const;

 private:
  void Key(std::string_view key);
  std::string body_;
};

/// Writes `line` to stdout and flushes, so a crash loses nothing printed.
void Emit(const JsonLine& line);

double SecondsSince(std::chrono::steady_clock::time_point start);

}  // namespace perfbench
