// Seeded byte-level mutation for the parser fuzz tests. The toolchain has
// no libFuzzer, so a fixed-seed Rng edits a valid document with byte
// flips, truncation, range deletion/duplication and insertion of
// characters the format's grammar uses.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "common/rng.h"

namespace metaai::testutil {

/// Characters JSON and JSONL readers branch on.
inline constexpr std::string_view kJsonPunctuation = "{}[]\":,-+.eE0\\\n u";

inline std::size_t Pick(Rng& rng, std::size_t n) {
  return n == 0 ? 0 : static_cast<std::size_t>(rng.UniformInt(n));
}

/// Applies 1-4 random edits to `text`; insertions draw from `insertable`.
inline std::string Mutate(std::string text, Rng& rng,
                          std::string_view insertable = kJsonPunctuation) {
  const int edits = rng.UniformInt(1, 4);
  for (int e = 0; e < edits; ++e) {
    const std::size_t pos = Pick(rng, text.size() + 1);
    const std::size_t len = 1 + Pick(rng, 16);
    switch (rng.UniformInt(0, 4)) {
      case 0:  // flip one bit of one byte
        if (!text.empty()) {
          text[Pick(rng, text.size())] ^=
              static_cast<char>(1u << rng.UniformInt(0, 7));
        }
        break;
      case 1:  // truncate
        text.resize(Pick(rng, text.size() + 1));
        break;
      case 2:  // delete a range
        if (pos < text.size()) text.erase(pos, len);
        break;
      case 3: {  // duplicate a range somewhere else
        if (text.empty()) break;
        const std::size_t from = Pick(rng, text.size());
        const std::string chunk = text.substr(from, len);
        text.insert(Pick(rng, text.size() + 1), chunk);
        break;
      }
      default:  // insert a grammar character
        text.insert(pos, 1, insertable[Pick(rng, insertable.size())]);
        break;
    }
  }
  return text;
}

}  // namespace metaai::testutil
