// FNV-1a (64-bit) digest over raw bytes, for golden-value tests that pin
// a bitwise result (codes, measurements, scores) to one constant.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

namespace metaai::testutil {

class Fnv1a {
 public:
  void AddBytes(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ bytes[i]) * 0x100000001b3ull;
    }
  }

  template <typename T>
  void Add(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    AddBytes(&value, sizeof(value));
  }

  /// Length-prefixed, so adjacent containers cannot alias each other.
  template <typename T>
  void Add(const std::vector<T>& values) {
    Add(static_cast<std::uint64_t>(values.size()));
    for (const T& value : values) Add(value);
  }

  void Add(const std::string& bytes) {
    Add(static_cast<std::uint64_t>(bytes.size()));
    AddBytes(bytes.data(), bytes.size());
  }

  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

}  // namespace metaai::testutil
