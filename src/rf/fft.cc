#include "rf/fft.h"

#include <cmath>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"

namespace metaai::rf {
namespace {

void BitReversePermute(std::span<Complex> data) {
  const std::size_t n = data.size();
  std::size_t j = 0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (i < j) std::swap(data[i], data[j]);
    std::size_t mask = n >> 1;
    while (j & mask) {
      j ^= mask;
      mask >>= 1;
    }
    j |= mask;
  }
}

// Forward twiddles w_n^k = e^{-j 2 pi k / n} for k < n/2, each evaluated
// directly with std::polar. The previous w *= step recurrence accumulated
// one rounding error per butterfly across a stage, which at n = 4096 cost
// ~2 digits of accuracy versus a naive DFT. Each stage fetches its own
// contiguous size-len table. Cached per length; thread_local so concurrent
// transforms (the par fan-outs) need no locking and stay deterministic.
const std::vector<Complex>& ForwardTwiddles(std::size_t n) {
  thread_local std::unordered_map<std::size_t, std::vector<Complex>> cache;
  auto [it, inserted] = cache.try_emplace(n);
  if (inserted) {
    it->second.resize(n / 2);
    for (std::size_t k = 0; k < n / 2; ++k) {
      it->second[k] =
          std::polar(1.0, -2.0 * M_PI * static_cast<double>(k) /
                              static_cast<double>(n));
    }
  }
  return it->second;
}

// One radix-2 butterfly pass over `count` pairs with contiguous even/odd
// halves: t = odd[k] * w[k] (w conjugated when `inverse`), then
// even[k] = e + t and odd[k] = e - t.
void ButterflyPass(Complex* even, Complex* odd, const Complex* twiddles,
                   std::size_t count, bool inverse) {
  for (std::size_t k = 0; k < count; ++k) {
    const Complex w = inverse ? std::conj(twiddles[k]) : twiddles[k];
    const Complex e = even[k];
    const Complex t = odd[k] * w;
    even[k] = e + t;
    odd[k] = e - t;
  }
}

void Transform(std::span<Complex> data, bool inverse) {
  const std::size_t n = data.size();
  Check(IsPowerOfTwo(n), "FFT length must be a power of two");
  if (n == 1) return;
  BitReversePermute(data);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    // Stage `len` reads the size-n table at stride n/len, which is
    // exactly the contiguous size-len table: w_n^{k*(n/len)} = w_len^k
    // bitwise (the stride is a power of two, so the phase argument
    // -2*pi*(k*stride)/n evaluates to the same double as -2*pi*k/len).
    const std::vector<Complex>& twiddles = ForwardTwiddles(len);
    const std::size_t half = len / 2;
    for (std::size_t block = 0; block < n; block += len) {
      ButterflyPass(&data[block], &data[block + half], twiddles.data(), half,
                    inverse);
    }
  }
  if (inverse) {
    const double scale = 1.0 / static_cast<double>(n);
    for (Complex& value : data) value *= scale;
  }
}

}  // namespace

bool IsPowerOfTwo(std::size_t n) { return n > 0 && (n & (n - 1)) == 0; }

void Fft(std::span<Complex> data) { Transform(data, /*inverse=*/false); }

void Ifft(std::span<Complex> data) { Transform(data, /*inverse=*/true); }

}  // namespace metaai::rf
