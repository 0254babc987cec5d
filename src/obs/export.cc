#include "obs/export.h"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <span>
#include <sstream>

#include "common/check.h"

namespace metaai::obs {

// Shortest round-trippable representation: integers print without an
// exponent, everything else via %.17g.
std::string JsonNumber(double value) {
  char buffer[64];
  // Range test first: casting a double outside int64's range is UB.
  if (std::abs(value) < 1e15 &&
      value == static_cast<double>(static_cast<std::int64_t>(value))) {
    std::snprintf(buffer, sizeof(buffer), "%" PRId64,
                  static_cast<std::int64_t>(value));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  }
  return buffer;
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

namespace {

void WriteUintArray(std::ostream& os, std::span<const std::uint64_t> values) {
  os << '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) os << ',';
    os << values[i];
  }
  os << ']';
}

void WriteDoubleArray(std::ostream& os, std::span<const double> values) {
  os << '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) os << ',';
    os << JsonNumber(values[i]);
  }
  os << ']';
}

}  // namespace

std::string ToJson(const RegistrySnapshot& snapshot, const Tracer* tracer) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"metaai.obs.v1\",\n  \"counters\": {";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    const auto& [name, value] = snapshot.counters[i];
    os << (i > 0 ? ",\n    " : "\n    ") << JsonString(name) << ": "
       << value;
  }
  os << (snapshot.counters.empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    const auto& [name, value] = snapshot.gauges[i];
    os << (i > 0 ? ",\n    " : "\n    ") << JsonString(name) << ": "
       << JsonNumber(value);
  }
  os << (snapshot.gauges.empty() ? "" : "\n  ") << "},\n  \"histograms\": {";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const auto& [name, h] = snapshot.histograms[i];
    os << (i > 0 ? ",\n    " : "\n    ") << JsonString(name)
       << ": {\"lower\": " << JsonNumber(h.lower) << ", \"upper_edges\": ";
    WriteDoubleArray(os, h.upper_edges);
    os << ", \"bucket_counts\": ";
    WriteUintArray(os, h.bucket_counts);
    os << ", \"count\": " << h.count << ", \"sum\": " << JsonNumber(h.sum)
       << "}";
  }
  os << (snapshot.histograms.empty() ? "" : "\n  ") << "}";
  if (tracer != nullptr) {
    os << ",\n  \"spans\": [";
    const auto& spans = tracer->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& span = spans[i];
      os << (i > 0 ? ",\n    " : "\n    ") << "{\"name\": "
         << JsonString(span.name) << ", \"start_ns\": " << span.start_ns
         << ", \"duration_ns\": " << span.duration_ns
         << ", \"depth\": " << span.depth;
      if (!span.args.empty()) {
        os << ", \"args\": {";
        for (std::size_t a = 0; a < span.args.size(); ++a) {
          os << (a > 0 ? ", " : "") << JsonString(span.args[a].first) << ": "
             << JsonNumber(span.args[a].second);
        }
        os << "}";
      }
      os << "}";
    }
    os << (spans.empty() ? "" : "\n  ") << "]";
  }
  os << "\n}\n";
  return os.str();
}

std::string ToChromeTrace(const Tracer& tracer) {
  // Trace Event Format timestamps and durations are microseconds.
  // Closed spans become complete ("X") events; a span still open at
  // export time becomes a begin ("B") event so the flamegraph shows it
  // running to the end of the trace.
  std::ostringstream os;
  os << "[";
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    const bool open = span.duration_ns < 0;
    os << (i > 0 ? ",\n " : "\n ") << "{\"name\": " << JsonString(span.name)
       << ", \"ph\": \"" << (open ? 'B' : 'X') << "\""
       << ", \"ts\": " << JsonNumber(static_cast<double>(span.start_ns) / 1e3);
    if (!open) {
      os << ", \"dur\": "
         << JsonNumber(static_cast<double>(span.duration_ns) / 1e3);
    }
    os << ", \"pid\": 0, \"tid\": " << span.tid
       << ", \"args\": {\"depth\": " << span.depth;
    for (const auto& [key, value] : span.args) {
      os << ", " << JsonString(key) << ": " << JsonNumber(value);
    }
    os << "}}";
  }
  os << (spans.empty() ? "" : "\n") << "]\n";
  return os.str();
}

std::string ToCsv(const RegistrySnapshot& snapshot) {
  std::ostringstream os;
  os << "name,kind,value,count,sum,p50,p95\n";
  for (const auto& [name, value] : snapshot.counters) {
    os << name << ",counter," << value << ",,,,\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    os << name << ",gauge," << JsonNumber(value) << ",,,,\n";
  }
  for (const auto& [name, h] : snapshot.histograms) {
    os << name << ",histogram,," << h.count << ',' << JsonNumber(h.sum)
       << ',' << JsonNumber(Percentile(h, 50.0)) << ','
       << JsonNumber(Percentile(h, 95.0)) << '\n';
  }
  return os.str();
}

bool WriteTextFile(const std::string& path, std::string_view text) {
  std::ofstream os(path, std::ios::binary);
  if (!os.good()) return false;
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
  os.close();
  return !os.fail();
}

Table SummaryTable(const RegistrySnapshot& snapshot) {
  Table table("Telemetry summary",
              {"Instrument", "Kind", "Value", "Count", "Mean", "P95"});
  for (const auto& [name, value] : snapshot.counters) {
    table.AddRow({name, "counter", std::to_string(value), "", "", ""});
  }
  for (const auto& [name, value] : snapshot.gauges) {
    table.AddRow({name, "gauge", FormatDouble(value, 4), "", "", ""});
  }
  for (const auto& [name, h] : snapshot.histograms) {
    const double mean =
        h.count > 0 ? h.sum / static_cast<double>(h.count) : 0.0;
    table.AddRow({name, "histogram", "", std::to_string(h.count),
                  FormatDouble(mean, 4),
                  FormatDouble(Percentile(h, 95.0), 4)});
  }
  return table;
}

// ---------------------------------------------------------------------
// Minimal JSON reader.
// ---------------------------------------------------------------------
namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue Parse() {
    JsonValue value = ParseValue(/*depth=*/0);
    SkipWhitespace();
    Check(pos_ == text_.size(), "trailing characters after JSON value");
    return value;
  }

 private:
  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char Peek() {
    SkipWhitespace();
    Check(pos_ < text_.size(), "unexpected end of JSON input");
    return text_[pos_];
  }

  void Expect(char c) {
    Check(Peek() == c, std::string("expected '") + c + "' in JSON input");
    ++pos_;
  }

  bool Consume(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  /// `depth` counts the arrays/objects enclosing this value.
  JsonValue ParseValue(std::size_t depth) {
    const char c = Peek();
    JsonValue value;
    switch (c) {
      case '{':
        return ParseObject(depth + 1);
      case '[':
        return ParseArray(depth + 1);
      case '"':
        value.type = JsonValue::Type::kString;
        value.string = ParseString();
        return value;
      case 't':
        Check(Consume("true"), "malformed JSON literal");
        value.type = JsonValue::Type::kBool;
        value.boolean = true;
        return value;
      case 'f':
        Check(Consume("false"), "malformed JSON literal");
        value.type = JsonValue::Type::kBool;
        value.boolean = false;
        return value;
      case 'n':
        Check(Consume("null"), "malformed JSON literal");
        value.type = JsonValue::Type::kNull;
        return value;
      default:
        return ParseNumber();
    }
  }

  /// Bounding the nesting keeps hostile input from recursing the parser
  /// off the stack.
  static void CheckDepth(std::size_t depth) {
    Check(depth <= kMaxJsonDepth, "JSON nesting exceeds kMaxJsonDepth");
  }

  JsonValue ParseObject(std::size_t depth) {
    CheckDepth(depth);
    Expect('{');
    JsonValue value;
    value.type = JsonValue::Type::kObject;
    if (Peek() == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      Check(Peek() == '"', "JSON object key must be a string");
      std::string key = ParseString();
      Expect(':');
      value.object.emplace_back(std::move(key), ParseValue(depth));
      const char next = Peek();
      ++pos_;
      if (next == '}') return value;
      Check(next == ',', "expected ',' or '}' in JSON object");
    }
  }

  JsonValue ParseArray(std::size_t depth) {
    CheckDepth(depth);
    Expect('[');
    JsonValue value;
    value.type = JsonValue::Type::kArray;
    if (Peek() == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      value.array.push_back(ParseValue(depth));
      const char next = Peek();
      ++pos_;
      if (next == ']') return value;
      Check(next == ',', "expected ',' or ']' in JSON array");
    }
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      Check(pos_ < text_.size(), "unterminated JSON string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      Check(pos_ < text_.size(), "unterminated JSON escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'u': {
          Check(pos_ + 4 <= text_.size(), "truncated \\u escape");
          const std::string hex(text_.substr(pos_, 4));
          Check(std::all_of(hex.begin(), hex.end(),
                            [](unsigned char d) { return std::isxdigit(d); }),
                "non-hex digit in \\u escape");
          pos_ += 4;
          out += static_cast<char>(std::strtol(hex.c_str(), nullptr, 16));
          break;
        }
        default:
          throw CheckError("unsupported JSON escape");
      }
    }
  }

  JsonValue ParseNumber() {
    SkipWhitespace();
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    Check(pos_ > start, "malformed JSON number");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    JsonValue value;
    value.type = JsonValue::Type::kNumber;
    value.number = std::strtod(token.c_str(), &end);
    Check(end == token.c_str() + token.size(), "malformed JSON number");
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

/// The one JSONL line splitter: `text` split on '\n', dropping the
/// empty piece after a trailing newline.
std::vector<std::string_view> Lines(std::string_view text) {
  std::vector<std::string_view> lines;
  while (!text.empty()) {
    const std::size_t eol = text.find('\n');
    lines.push_back(text.substr(0, eol));
    if (eol == std::string_view::npos) break;
    text.remove_prefix(eol + 1);
  }
  return lines;
}

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

JsonValue ParseJson(std::string_view text) {
  return JsonParser(text).Parse();
}

const JsonValue& Member(const JsonValue& object, std::string_view key) {
  const JsonValue* value = object.Find(key);
  Check(value != nullptr, "missing JSON member: " + std::string(key));
  return *value;
}

double CheckedJsonInteger(const JsonValue& value, double lo,
                          double hi_exclusive) {
  Check(value.type == JsonValue::Type::kNumber,
        "JSON integer field is not a number");
  // The comparisons are false for NaN, so NaN fails the range check.
  Check(value.number >= lo && value.number < hi_exclusive &&
            value.number == std::floor(value.number),
        "JSON integer field is not an in-range integer");
  return value.number;
}

JsonlDocument ParseJsonl(std::string_view text, std::string_view schema) {
  const std::string prefix = std::string(schema) + ": ";
  const std::vector<std::string_view> lines = Lines(text);
  Check(!lines.empty(), prefix + "empty document");
  JsonlDocument document;
  document.header = ParseJson(lines[0]);
  const JsonValue* name = document.header.Find("schema");
  Check(name != nullptr && name->string == schema,
        prefix + "bad schema header");
  if (const JsonValue* count = document.header.Find("count")) {
    Check(JsonInteger<std::size_t>(*count) == lines.size() - 1,
          prefix + "count does not match record lines");
  }
  document.records.reserve(lines.size() - 1);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    document.records.push_back(ParseJson(lines[i]));
  }
  return document;
}

RegistrySnapshot SnapshotFromJson(const JsonValue& document) {
  Check(document.type == JsonValue::Type::kObject,
        "telemetry document must be a JSON object");
  const JsonValue& schema = Member(document, "schema");
  Check(schema.string == "metaai.obs.v1",
        "unsupported telemetry schema: " + schema.string);

  RegistrySnapshot snapshot;
  for (const auto& [name, value] : Member(document, "counters").object) {
    snapshot.counters.emplace_back(name, JsonInteger<std::uint64_t>(value));
  }
  for (const auto& [name, value] : Member(document, "gauges").object) {
    snapshot.gauges.emplace_back(name, value.number);
  }
  for (const auto& [name, value] : Member(document, "histograms").object) {
    HistogramSnapshot h;
    h.lower = Member(value, "lower").number;
    for (const JsonValue& edge : Member(value, "upper_edges").array) {
      h.upper_edges.push_back(edge.number);
    }
    std::uint64_t total = 0;
    for (const JsonValue& count : Member(value, "bucket_counts").array) {
      const auto bucket = JsonInteger<std::uint64_t>(count);
      Check(bucket <= std::numeric_limits<std::uint64_t>::max() - total,
            "histogram bucket counts overflow: " + name);
      h.bucket_counts.push_back(bucket);
      total += bucket;
    }
    h.count = JsonInteger<std::uint64_t>(Member(value, "count"));
    h.sum = Member(value, "sum").number;
    // Percentile walks bucket_counts against upper_edges; a mismatched
    // shape would read past the edges.
    Check(h.bucket_counts.size() == h.upper_edges.size() + 1,
          "histogram needs one more bucket count than upper edges: " + name);
    Check(h.count == total, "histogram count != sum(bucket_counts): " + name);
    snapshot.histograms.emplace_back(name, std::move(h));
  }
  return snapshot;
}

}  // namespace metaai::obs
