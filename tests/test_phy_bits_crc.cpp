#include <gtest/gtest.h>

#include "dsp/rng.hpp"
#include "phy/bits.hpp"
#include "phy/crc.hpp"

namespace hs::phy {
namespace {

TEST(Bits, BytesToBitsMsbFirst) {
  const ByteVec bytes = {0xA5};  // 1010 0101
  const BitVec expected = {1, 0, 1, 0, 0, 1, 0, 1};
  EXPECT_EQ(bytes_to_bits(ByteView(bytes.data(), bytes.size())), expected);
}

TEST(Bits, BytesToBitsKeepsByteOrder) {
  const ByteVec bytes = {0x00, 0xFF, 0x3C, 0x81};
  const BitVec expected = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1,
                           0, 0, 1, 1, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1};
  EXPECT_EQ(bytes_to_bits(ByteView(bytes.data(), bytes.size())), expected);
}

TEST(Bits, HammingDistanceAtWindow) {
  const BitVec stream = {0, 0, 1, 0, 1, 1};
  const BitVec pattern = {1, 0, 1};
  EXPECT_EQ(hamming_distance_at(BitView(stream.data(), stream.size()), 2,
                                BitView(pattern.data(), pattern.size())),
            0u);
  EXPECT_THROW(hamming_distance_at(BitView(stream.data(), stream.size()), 4,
                                   BitView(pattern.data(), pattern.size())),
               std::out_of_range);
}

TEST(Bits, BitErrorRateConventions) {
  EXPECT_DOUBLE_EQ(bit_error_rate({}, {}), 0.5);
  const BitVec sent = {1, 1, 1, 1};
  const BitVec good = {1, 1, 1, 1};
  const BitVec half = {1, 1, 0, 0};
  EXPECT_DOUBLE_EQ(bit_error_rate(BitView(sent.data(), 4),
                                  BitView(good.data(), 4)),
                   0.0);
  EXPECT_DOUBLE_EQ(bit_error_rate(BitView(sent.data(), 4),
                                  BitView(half.data(), 4)),
                   0.5);
  // Missing received bits are charged at 1/2 each.
  EXPECT_DOUBLE_EQ(bit_error_rate(BitView(sent.data(), 4),
                                  BitView(good.data(), 2)),
                   (0.0 + 0.5 * 2.0) / 4.0);
}

TEST(Bits, ReadUintMsbFirst) {
  const BitVec bits = {0, 0, 1, 0, 1, 1, 0, 1, 1, 1, 0, 1,
                       0, 1, 0, 0, 1, 1, 1};  // 0x2DD4, then 7 in 3 bits
  EXPECT_EQ(read_uint(BitView(bits.data(), bits.size()), 0, 16), 0x2DD4u);
  EXPECT_EQ(read_uint(BitView(bits.data(), bits.size()), 16, 3), 7u);
  EXPECT_THROW(read_uint(BitView(bits.data(), bits.size()), 16, 4),
               std::out_of_range);
}

TEST(Crc16, KnownCheckValue) {
  // CRC-16/CCITT-FALSE check value for "123456789".
  const ByteVec msg = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc16_ccitt(ByteView(msg.data(), msg.size())), 0x29B1);
}

TEST(Crc16, EmptyIsInit) {
  EXPECT_EQ(crc16_ccitt({}), 0xFFFF);
}

TEST(Crc16, IncrementalMatchesOneShot) {
  ByteVec msg(100);
  for (std::size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<std::uint8_t>(i * 3);
  }
  Crc16 crc;
  for (auto b : msg) crc.update(b);
  EXPECT_EQ(crc.value(), crc16_ccitt(ByteView(msg.data(), msg.size())));
}

TEST(Crc16, ResetRestoresInit) {
  Crc16 crc;
  crc.update(0x42);
  crc.reset();
  EXPECT_EQ(crc.value(), 0xFFFF);
}

class CrcBitFlipSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CrcBitFlipSweep, DetectsEverySingleBitFlip) {
  // Property: CRC-16 detects all single-bit errors.
  ByteVec msg = {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x42};
  const auto clean = crc16_ccitt(ByteView(msg.data(), msg.size()));
  const std::size_t bit = GetParam();
  msg[bit / 8] ^= static_cast<std::uint8_t>(0x80 >> (bit % 8));
  EXPECT_NE(crc16_ccitt(ByteView(msg.data(), msg.size())), clean);
}

INSTANTIATE_TEST_SUITE_P(AllBits, CrcBitFlipSweep,
                         ::testing::Range<std::size_t>(0, 48));

TEST(Crc16, DetectsDoubleBitFlips) {
  dsp::Rng rng(3);
  ByteVec msg(32);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next_u64());
  const auto clean = crc16_ccitt(ByteView(msg.data(), msg.size()));
  for (int trial = 0; trial < 200; ++trial) {
    ByteVec corrupted = msg;
    const auto b1 = rng.uniform_u64(msg.size() * 8);
    auto b2 = rng.uniform_u64(msg.size() * 8);
    if (b2 == b1) b2 = (b2 + 1) % (msg.size() * 8);
    corrupted[b1 / 8] ^= static_cast<std::uint8_t>(0x80 >> (b1 % 8));
    corrupted[b2 / 8] ^= static_cast<std::uint8_t>(0x80 >> (b2 % 8));
    EXPECT_NE(crc16_ccitt(ByteView(corrupted.data(), corrupted.size())),
              clean);
  }
}

}  // namespace
}  // namespace hs::phy
