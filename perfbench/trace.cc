#include "trace.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

std::uint64_t Fnv1a64(std::string_view bytes, std::uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::uint64_t DigestInts(const std::vector<int>& values) {
  std::uint64_t hash = Fnv1a64({});
  for (const int v : values) {
    const auto u = static_cast<std::uint32_t>(v);
    const char bytes[4] = {static_cast<char>(u & 0xff),
                           static_cast<char>((u >> 8) & 0xff),
                           static_cast<char>((u >> 16) & 0xff),
                           static_cast<char>((u >> 24) & 0xff)};
    hash = Fnv1a64(std::string_view(bytes, 4), hash);
  }
  return hash;
}

std::string Hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

bool FnvSelfCheck() {
  // The last value is pinned in test_benchlib.py too: a change to the
  // digest encoding breaks both.
  return Fnv1a64("") == 0xcbf29ce484222325ull &&
         Fnv1a64("a") == 0xaf63dc4c8601ec8cull &&
         Fnv1a64("foobar") == 0x85944171f73967e8ull &&
         DigestInts({3, -1, 0}) == 0xbd325838fe14d262ull;
}

SpanLog::SpanLog() : origin_(std::chrono::steady_clock::now()) {}

std::int64_t SpanLog::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int SpanLog::Open(std::string_view name, int parent, std::uint64_t request) {
  spans_.push_back({.name = std::string(name),
                    .start_ns = NowNs(),
                    .end_ns = 0,
                    .parent = parent,
                    .request = request});
  return static_cast<int>(spans_.size()) - 1;
}

double SpanLog::Close(int id) {
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = NowNs();
  return static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
}

void SpanLog::WriteJsonl(std::ostream& os) const {
  for (const Span& span : spans_) {
    os << JsonLine()
              .Str("name", span.name)
              .Int("start_ns", static_cast<std::uint64_t>(span.start_ns))
              .Int("end_ns", static_cast<std::uint64_t>(span.end_ns))
              .Num("parent", span.parent)
              .Int("request", span.request)
              .str();
  }
}

void JsonLine::Key(std::string_view key) {
  body_ += body_.empty() ? "{\"" : ", \"";
  body_ += key;
  body_ += "\": ";
}

JsonLine& JsonLine::Num(std::string_view key, double value) {
  Key(key);
  if (!std::isfinite(value)) {
    body_ += "null";
    return *this;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  body_ += buffer;
  return *this;
}

JsonLine& JsonLine::Int(std::string_view key, std::uint64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonLine& JsonLine::Str(std::string_view key, std::string_view value) {
  Key(key);
  body_ += '"';
  for (const char c : value) {
    if (c == '"' || c == '\\') body_ += '\\';
    body_ += c;
  }
  body_ += '"';
  return *this;
}

JsonLine& JsonLine::Bool(std::string_view key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

JsonLine& JsonLine::Nums(std::string_view key,
                         const std::vector<double>& values) {
  Key(key);
  body_ += '[';
  char buffer[32];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buffer, sizeof(buffer), "%s%.17g", i > 0 ? "," : "",
                  values[i]);
    body_ += buffer;
  }
  body_ += ']';
  return *this;
}

std::string JsonLine::str() const {
  return (body_.empty() ? std::string("{") : body_) + "}\n";
}

void Emit(const JsonLine& line) {
  std::fputs(line.str().c_str(), stdout);
  std::fflush(stdout);
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace perfbench
