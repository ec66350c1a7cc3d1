// Tests for support::WordHash, the content hash behind the sweep-cache keys
// and the snapshot checksum: bit-flip sensitivity (single flips anywhere,
// high-bit flips in two words, which a bare xor-multiply step cancels), the
// blocked eight-lane path agreeing with word-at-a-time feeding at every
// alignment, byte-tail padding, and a pinned digest so an accidental change
// to the hash (which would orphan every saved snapshot key) fails loudly.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "support/word_hash.hpp"

namespace somrm {
namespace {

using support::WordHash;

std::vector<double> sample(std::size_t n) {
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i)
    xs[i] = 0.1 * static_cast<double>(i) + 1.0 / (1.0 + static_cast<double>(i));
  return xs;
}

std::string key_of(const std::vector<double>& xs) {
  WordHash h;
  h.doubles(xs);
  return h.hex();
}

double flip(double x, unsigned bit) {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) ^
                               (std::uint64_t{1} << bit));
}

TEST(WordHashTest, EverySingleBitFlipChangesTheKey) {
  const std::vector<double> base = sample(37);
  const std::string key = key_of(base);
  std::set<std::string> seen{key};
  for (std::size_t i = 0; i < base.size(); ++i)
    for (unsigned bit = 0; bit < 64; ++bit) {
      std::vector<double> xs = base;
      xs[i] = flip(xs[i], bit);
      const std::string k = key_of(xs);
      EXPECT_NE(k, key) << "word " << i << " bit " << bit;
      seen.insert(k);
    }
  // No two distinct single flips collide either.
  EXPECT_EQ(seen.size(), 1 + base.size() * 64);
}

TEST(WordHashTest, HighBitFlipsInTwoWordsChangeTheKey) {
  // Same lane (j - i a multiple of 8) and different lanes alike.
  const std::vector<double> base = sample(40);
  const std::string key = key_of(base);
  for (std::size_t i = 0; i < base.size(); ++i)
    for (std::size_t j = i + 1; j < base.size(); ++j) {
      std::vector<double> xs = base;
      xs[i] = flip(xs[i], 63);
      xs[j] = flip(xs[j], 63);
      EXPECT_NE(key_of(xs), key) << "words " << i << " and " << j;
    }
}

TEST(WordHashTest, BlockedPathMatchesWordAtATimeAtEveryAlignment) {
  const std::vector<double> xs = sample(37);
  for (std::size_t lead = 0; lead < 8; ++lead) {
    WordHash blocked;
    WordHash single;
    for (std::size_t k = 0; k < lead; ++k) {
      blocked.word(k);
      single.word(k);
    }
    blocked.doubles(xs);
    single.word(xs.size());
    for (double x : xs) single.word(std::bit_cast<std::uint64_t>(x));
    EXPECT_EQ(blocked.hex(), single.hex()) << "lead " << lead;
  }
}

TEST(WordHashTest, LengthIsPartOfTheKey) {
  EXPECT_NE(key_of({}), key_of({0.0}));
  EXPECT_NE(key_of({0.0}), key_of({0.0, 0.0}));
  const unsigned char zeros[9] = {};
  WordHash eight;
  eight.bytes(zeros, 8);
  WordHash nine;
  nine.bytes(zeros, 9);
  EXPECT_NE(eight.hex(), nine.hex());
}

TEST(WordHashTest, EveryByteOfAPartialTailCounts) {
  unsigned char buf[13];
  for (std::size_t i = 0; i < sizeof buf; ++i)
    buf[i] = static_cast<unsigned char>(17 * i + 3);
  WordHash h;
  h.bytes(buf, sizeof buf);
  const std::string key = h.hex();
  for (std::size_t i = 0; i < sizeof buf; ++i) {
    unsigned char mutated[sizeof buf];
    std::copy(buf, buf + sizeof buf, mutated);
    mutated[i] ^= 0x80;
    WordHash m;
    m.bytes(mutated, sizeof mutated);
    EXPECT_NE(m.hex(), key) << "byte " << i;
  }
}

TEST(WordHashTest, DigestOfAFixedInputIsPinned) {
  WordHash h;
  h.doubles(sample(10));
  h.sizes(std::vector<std::size_t>{0, 3, 7, 7, 12});
  h.word(42);
  EXPECT_EQ(h.hex(), "c95e4b66bea38d4ac7ef9bc8fa5ba0ab");
}

}  // namespace
}  // namespace somrm
