#include "core/serialization.h"

#include <fstream>
#include <iomanip>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "common/check.h"

namespace metaai::core {
namespace {

constexpr const char* kModelMagic = "metaai-model-v1";
constexpr const char* kPatternMagic = "metaai-patterns-v1";

std::optional<rf::Modulation> ModulationFromName(const std::string& name) {
  for (const rf::Modulation scheme : rf::AllModulations()) {
    if (rf::ModulationName(scheme) == name) return scheme;
  }
  return std::nullopt;
}

char HexDigit(unsigned value) {
  return value < 10 ? static_cast<char>('0' + value)
                    : static_cast<char>('a' + value - 10);
}

/// -1 for characters outside [0-9a-f].
int HexValue(char digit) {
  if (digit >= '0' && digit <= '9') return digit - '0';
  if (digit >= 'a' && digit <= 'f') return digit - 'a' + 10;
  return -1;
}

Error IoError(const std::string& what, const std::filesystem::path& path) {
  return Error{ErrorCode::kIoError, what + ": " + path.string()};
}

Error ParseError(const std::string& what, const std::filesystem::path& path) {
  return Error{ErrorCode::kParseError, what + ": " + path.string()};
}

/// Bounds each count read from a file by what the rest of the file can
/// hold, before anything is sized by it, so a hostile count is a parse
/// error instead of a std::length_error or a huge allocation.
class CountBound {
 public:
  CountBound(std::istream& in, const std::filesystem::path& path)
      : in_(in), path_(path) {
    in.seekg(0, std::ios::end);
    size_ = in.tellg();
    in.seekg(0);
  }

  /// An error unless `count` items of at least `min_bytes` each fit in
  /// the bytes after the read position, plus one for a missing final
  /// newline. A whitespace-separated number takes at least two bytes.
  std::optional<Error> Check(std::size_t count, std::size_t min_bytes,
                             const std::string& what) const {
    // tellg() fails at end of file, where nothing is left.
    const std::streamoff left =
        in_.eof() ? 0 : size_ - static_cast<std::streamoff>(in_.tellg());
    if (count <= (static_cast<std::size_t>(left) + 1) / min_bytes) {
      return std::nullopt;
    }
    return ParseError(what + " exceeds what the file can hold in", path_);
  }

 private:
  std::istream& in_;
  const std::filesystem::path& path_;
  std::streamoff size_ = 0;
};

}  // namespace

Result<void> TrySaveModel(const TrainedModel& model,
                          const std::filesystem::path& path) {
  std::ofstream out(path);
  if (!out.good()) return IoError("cannot open model file for writing", path);
  out << kModelMagic << '\n';
  out << rf::ModulationName(model.modulation) << '\n';
  out << model.num_classes() << ' ' << model.input_dim() << '\n';
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  const ComplexMatrix& w = model.network.weights();
  for (std::size_t r = 0; r < w.rows(); ++r) {
    for (std::size_t c = 0; c < w.cols(); ++c) {
      out << w(r, c).real() << ' ' << w(r, c).imag() << '\n';
    }
  }
  // Optional cascade trailer: the loader stops at the exact weight count,
  // so legacy readers ignore it and models without layers stay
  // byte-identical to the pre-cascade format.
  if (!model.layers.empty()) {
    out << "layers " << model.layers.size() << '\n';
    for (const mts::PhysicalLayerSpec& layer : model.layers) {
      const mts::MetasurfaceSpec& s = layer.surface;
      out << s.rows << ' ' << s.cols << ' ' << layer.coupling_gain << ' '
          << s.design_frequency_hz << ' ' << s.fractional_bandwidth << ' '
          << s.fov_deg << ' ' << s.atom_reflection_amplitude << ' '
          << s.supported_bands_hz.size();
      for (const double band : s.supported_bands_hz) out << ' ' << band;
      out << '\n';
    }
  }
  out.flush();
  if (!out.good()) return IoError("failed writing model file", path);
  return Ok();
}

Result<TrainedModel> TryLoadModel(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in.good()) return IoError("cannot open model file", path);
  const CountBound bound(in, path);
  std::string magic;
  std::getline(in, magic);
  if (magic != kModelMagic) return ParseError("not a metaai model file", path);
  std::string modulation_name;
  std::getline(in, modulation_name);
  const std::optional<rf::Modulation> modulation =
      ModulationFromName(modulation_name);
  if (!modulation.has_value()) {
    return ParseError("unknown modulation '" + modulation_name +
                          "' in model file",
                      path);
  }
  std::size_t classes = 0;
  std::size_t dim = 0;
  in >> classes >> dim;
  if (!in.good() || classes == 0 || dim == 0) {
    return ParseError("malformed model dimensions in", path);
  }
  // Each weight is two numbers.
  if (auto error = bound.Check(dim, 4, "model input dim")) return *error;
  if (auto error = bound.Check(classes, 4 * dim, "model class count")) {
    return *error;
  }

  TrainedModel model{.network = nn::ComplexLinearModel(dim, classes),
                     .modulation = *modulation};
  ComplexMatrix& w = model.network.mutable_weights();
  for (std::size_t r = 0; r < classes; ++r) {
    for (std::size_t c = 0; c < dim; ++c) {
      double re = 0.0;
      double im = 0.0;
      in >> re >> im;
      if (in.fail()) return ParseError("truncated model file", path);
      w(r, c) = {re, im};
    }
  }

  // Optional cascade trailer; EOF here means a legacy single-surface
  // model (layers stays empty).
  std::string trailer;
  if (in >> trailer) {
    if (trailer != "layers") {
      return ParseError("unexpected trailer '" + trailer + "' in model file",
                        path);
    }
    std::size_t num_layers = 0;
    in >> num_layers;
    if (in.fail() || num_layers == 0) {
      return ParseError("malformed layer count in model file", path);
    }
    // A layer line holds at least eight numbers.
    if (auto error = bound.Check(num_layers, 16, "layer count")) {
      return *error;
    }
    for (std::size_t l = 0; l < num_layers; ++l) {
      mts::PhysicalLayerSpec layer;
      std::size_t num_bands = 0;
      in >> layer.surface.rows >> layer.surface.cols >> layer.coupling_gain >>
          layer.surface.design_frequency_hz >>
          layer.surface.fractional_bandwidth >> layer.surface.fov_deg >>
          layer.surface.atom_reflection_amplitude >> num_bands;
      if (in.fail()) return ParseError("truncated layer trailer in", path);
      if (auto error = bound.Check(num_bands, 2, "band count")) return *error;
      layer.surface.supported_bands_hz.assign(num_bands, 0.0);
      for (double& band : layer.surface.supported_bands_hz) in >> band;
      if (in.fail()) return ParseError("truncated layer bands in", path);
      model.layers.push_back(std::move(layer));
    }
    // Reject geometrically invalid graphs at load time with a typed
    // error instead of letting construction Check-abort downstream.
    const Result<mts::LayerGraph> graph =
        mts::LayerGraph::TryFromSpecs(model.layers);
    if (!graph.ok()) {
      return Error{ErrorCode::kParseError,
                   "invalid layer trailer: " + graph.error().message};
    }
  }
  return model;
}

Result<void> TrySavePatterns(const MappedSchedules& schedules,
                             std::size_t num_atoms,
                             const std::filesystem::path& path) {
  if (schedules.rounds.empty()) {
    return Error{ErrorCode::kInvalidArgument, "no schedules to save"};
  }
  if (num_atoms % 2 != 0) {
    return Error{ErrorCode::kInvalidArgument,
                 "atom count must be even for hex packing, got " +
                     std::to_string(num_atoms)};
  }
  std::ofstream out(path);
  if (!out.good()) {
    return IoError("cannot open pattern file for writing", path);
  }
  out << kPatternMagic << '\n';
  out << schedules.rounds.size() << ' ' << schedules.rounds[0].size() << ' '
      << num_atoms << '\n';
  out << std::setprecision(std::numeric_limits<double>::max_digits10)
      << schedules.scale << ' ' << schedules.mean_relative_residual << '\n';
  for (std::size_t round = 0; round < schedules.rounds.size(); ++round) {
    // Outputs computed by this round (one per observation, -1 = idle).
    const auto& outputs = schedules.outputs[round];
    out << outputs.size();
    for (const int o : outputs) out << ' ' << o;
    out << '\n';
    for (const auto& codes : schedules.rounds[round]) {
      if (codes.size() != num_atoms) {
        return Error{ErrorCode::kInvalidArgument,
                     "inconsistent config size: expected " +
                         std::to_string(num_atoms) + " atoms, got " +
                         std::to_string(codes.size())};
      }
      // Two atoms (2 bits each) per hex digit, atom order preserved.
      std::string line;
      line.reserve(num_atoms / 2);
      for (std::size_t m = 0; m < num_atoms; m += 2) {
        const unsigned nibble = (static_cast<unsigned>(codes[m]) << 2) |
                                static_cast<unsigned>(codes[m + 1]);
        line.push_back(HexDigit(nibble));
      }
      out << line << '\n';
    }
  }
  // Optional cascade trailer: per-round upper-layer schedules, same
  // hex packing. The legacy loader stops at the exact round count, so
  // single-surface pattern files stay byte-identical.
  if (!schedules.upper_rounds.empty()) {
    if (schedules.upper_rounds.size() != schedules.rounds.size()) {
      return Error{ErrorCode::kInvalidArgument,
                   "upper schedules must cover every round"};
    }
    const std::size_t num_upper = schedules.upper_rounds[0].size();
    std::vector<std::size_t> upper_atoms(num_upper);
    for (std::size_t u = 0; u < num_upper; ++u) {
      upper_atoms[u] = schedules.upper_rounds[0][u].at(0).size();
      if (upper_atoms[u] == 0 || upper_atoms[u] % 2 != 0) {
        return Error{ErrorCode::kInvalidArgument,
                     "upper layer atom count must be even for hex packing, "
                     "got " +
                         std::to_string(upper_atoms[u])};
      }
    }
    out << "upper " << num_upper;
    for (const std::size_t atoms : upper_atoms) out << ' ' << atoms;
    out << '\n';
    for (const sim::LayerSchedules& round_upper : schedules.upper_rounds) {
      if (round_upper.size() != num_upper) {
        return Error{ErrorCode::kInvalidArgument,
                     "inconsistent upper layer count across rounds"};
      }
      for (std::size_t u = 0; u < num_upper; ++u) {
        if (round_upper[u].size() != schedules.rounds[0].size()) {
          return Error{ErrorCode::kInvalidArgument,
                       "upper schedule symbol count mismatch"};
        }
        for (const auto& codes : round_upper[u]) {
          if (codes.size() != upper_atoms[u]) {
            return Error{ErrorCode::kInvalidArgument,
                         "inconsistent upper config size: expected " +
                             std::to_string(upper_atoms[u]) + " atoms, got " +
                             std::to_string(codes.size())};
          }
          std::string line;
          line.reserve(upper_atoms[u] / 2);
          for (std::size_t m = 0; m < upper_atoms[u]; m += 2) {
            const unsigned nibble = (static_cast<unsigned>(codes[m]) << 2) |
                                    static_cast<unsigned>(codes[m + 1]);
            line.push_back(HexDigit(nibble));
          }
          out << line << '\n';
        }
      }
    }
  }
  out.flush();
  if (!out.good()) return IoError("failed writing pattern file", path);
  return Ok();
}

Result<MappedSchedules> TryLoadPatterns(const std::filesystem::path& path,
                                        std::size_t expected_atoms) {
  std::ifstream in(path);
  if (!in.good()) return IoError("cannot open pattern file", path);
  const CountBound bound(in, path);
  std::string magic;
  std::getline(in, magic);
  if (magic != kPatternMagic) {
    return ParseError("not a metaai pattern file", path);
  }
  std::size_t rounds = 0;
  std::size_t symbols = 0;
  std::size_t atoms = 0;
  in >> rounds >> symbols >> atoms;
  if (!in.good() || rounds == 0 || symbols == 0) {
    return ParseError("malformed pattern header in", path);
  }
  if (atoms != expected_atoms) {
    return Error{ErrorCode::kParseError,
                 "pattern file atom count " + std::to_string(atoms) +
                     " does not match the surface (" +
                     std::to_string(expected_atoms) + ")"};
  }
  // A round opens with an outputs line of at least two numbers; a
  // symbol is a line of atoms / 2 hex digits.
  if (auto error = bound.Check(rounds, 4, "round count")) return *error;
  if (auto error = bound.Check(symbols, atoms / 2 + 1, "symbol count")) {
    return *error;
  }

  MappedSchedules schedules;
  in >> schedules.scale >> schedules.mean_relative_residual;
  if (in.fail()) return ParseError("malformed pattern scale in", path);
  for (std::size_t round = 0; round < rounds; ++round) {
    std::size_t num_outputs = 0;
    in >> num_outputs;
    if (in.fail() || num_outputs == 0) {
      return ParseError("malformed round outputs in", path);
    }
    if (auto error = bound.Check(num_outputs, 2, "round output count")) {
      return *error;
    }
    std::vector<int> outputs(num_outputs);
    for (int& o : outputs) in >> o;
    if (in.fail()) return ParseError("truncated round outputs in", path);
    in >> std::ws;
    sim::MtsSchedule schedule;
    schedule.reserve(symbols);
    for (std::size_t i = 0; i < symbols; ++i) {
      std::string line;
      std::getline(in, line);
      if (in.fail() || line.size() != atoms / 2) {
        return ParseError("malformed pattern line in", path);
      }
      std::vector<mts::PhaseCode> codes(atoms);
      for (std::size_t d = 0; d < line.size(); ++d) {
        const int nibble = HexValue(line[d]);
        if (nibble < 0) {
          return ParseError("invalid hex digit in pattern file", path);
        }
        codes[2 * d] =
            static_cast<mts::PhaseCode>(static_cast<unsigned>(nibble) >> 2);
        codes[2 * d + 1] =
            static_cast<mts::PhaseCode>(static_cast<unsigned>(nibble) & 0x3u);
      }
      schedule.push_back(std::move(codes));
    }
    schedules.rounds.push_back(std::move(schedule));
    schedules.outputs.push_back(std::move(outputs));
  }

  // Optional cascade trailer; EOF here means a legacy single-surface
  // pattern file (upper_rounds stays empty).
  std::string trailer;
  if (in >> trailer) {
    if (trailer != "upper") {
      return ParseError("unexpected trailer '" + trailer + "' in pattern file",
                        path);
    }
    std::size_t num_upper = 0;
    in >> num_upper;
    if (in.fail() || num_upper == 0) {
      return ParseError("malformed upper layer count in", path);
    }
    if (auto error = bound.Check(num_upper, 2, "upper layer count")) {
      return *error;
    }
    std::vector<std::size_t> upper_atoms(num_upper);
    for (std::size_t& count : upper_atoms) {
      in >> count;
      if (in.fail() || count == 0 || count % 2 != 0) {
        return ParseError("malformed upper atom count in", path);
      }
      // Each upper symbol is a line of count / 2 hex digits.
      if (auto error = bound.Check(1, count / 2 + 1, "upper atom count")) {
        return *error;
      }
    }
    in >> std::ws;
    for (std::size_t round = 0; round < rounds; ++round) {
      sim::LayerSchedules round_upper(num_upper);
      for (std::size_t u = 0; u < num_upper; ++u) {
        round_upper[u].reserve(symbols);
        for (std::size_t i = 0; i < symbols; ++i) {
          std::string line;
          std::getline(in, line);
          if (in.fail() || line.size() != upper_atoms[u] / 2) {
            return ParseError("malformed upper pattern line in", path);
          }
          std::vector<mts::PhaseCode> codes(upper_atoms[u]);
          for (std::size_t d = 0; d < line.size(); ++d) {
            const int nibble = HexValue(line[d]);
            if (nibble < 0) {
              return ParseError("invalid hex digit in pattern file", path);
            }
            codes[2 * d] = static_cast<mts::PhaseCode>(
                static_cast<unsigned>(nibble) >> 2);
            codes[2 * d + 1] = static_cast<mts::PhaseCode>(
                static_cast<unsigned>(nibble) & 0x3u);
          }
          round_upper[u].push_back(std::move(codes));
        }
      }
      schedules.upper_rounds.push_back(std::move(round_upper));
    }
  }
  return schedules;
}

}  // namespace metaai::core
