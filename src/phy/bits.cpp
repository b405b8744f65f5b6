#include "phy/bits.hpp"

#include <stdexcept>

namespace hs::phy {

BitVec bytes_to_bits(ByteView bytes) {
  BitVec bits;
  bits.reserve(bytes.size() * 8);
  for (std::uint8_t b : bytes) {
    for (int i = 7; i >= 0; --i) {
      bits.push_back(static_cast<std::uint8_t>((b >> i) & 1));
    }
  }
  return bits;
}

std::size_t hamming_distance_at(BitView stream, std::size_t offset,
                                BitView pattern) {
  if (offset + pattern.size() > stream.size()) {
    throw std::out_of_range("hamming_distance_at: window out of range");
  }
  std::size_t d = 0;
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    d += (stream[offset + i] ^ pattern[i]) & 1;
  }
  return d;
}

double bit_error_rate(BitView sent, BitView received) {
  const std::size_t n = std::min(sent.size(), received.size());
  if (n == 0) return 0.5;
  std::size_t errors = 0;
  for (std::size_t i = 0; i < n; ++i) errors += (sent[i] ^ received[i]) & 1;
  // Bits the receiver never produced count as coin flips in expectation;
  // charge them at 1/2 so truncated captures do not look artificially good.
  const std::size_t missing = sent.size() > n ? sent.size() - n : 0;
  return (static_cast<double>(errors) + 0.5 * static_cast<double>(missing)) /
         static_cast<double>(n + missing);
}

std::uint64_t read_uint(BitView bits, std::size_t offset,
                        std::size_t bit_count) {
  if (offset + bit_count > bits.size()) {
    throw std::out_of_range("read_uint: out of range");
  }
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bit_count; ++i) {
    v = (v << 1) | (bits[offset + i] & 1);
  }
  return v;
}

}  // namespace hs::phy
