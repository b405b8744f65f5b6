// Bit-vector utilities shared by all PHY codecs.
//
// Bits travel through the PHY as one byte per bit (0 or 1), MSB-first
// relative to the byte stream, which keeps demodulator output trivially
// inspectable in tests and in the shield's identifying-sequence matcher.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace hs::phy {

using BitVec = std::vector<std::uint8_t>;  // each element is 0 or 1
using BitView = std::span<const std::uint8_t>;
using ByteVec = std::vector<std::uint8_t>;
using ByteView = std::span<const std::uint8_t>;

/// Expands bytes to bits, MSB first.
BitVec bytes_to_bits(ByteView bytes);

/// Hamming distance between `pattern` and the window of `stream` starting at
/// `offset` (both must fit).
std::size_t hamming_distance_at(BitView stream, std::size_t offset,
                                BitView pattern);

/// Bit error rate between transmitted and received bit vectors (compared up
/// to the shorter length; returns 0.5 for empty input, the "pure guessing"
/// convention used in the paper's BER plots).
double bit_error_rate(BitView sent, BitView received);

/// Reads `bit_count` bits MSB-first starting at `offset`.
std::uint64_t read_uint(BitView bits, std::size_t offset,
                        std::size_t bit_count);

}  // namespace hs::phy
