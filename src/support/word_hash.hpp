// somrm/support/word_hash.hpp
//
// WordHash: the one content hash in the tree. It derives the sweep-cache
// keys (core/solve_session.cpp) and the snapshot checksum
// (serve/snapshot.cpp).
//
// The input is a stream of 8-byte words. Word k goes to lane k mod 8, and
// each lane applies h = mix(h ^ w) with the bijective splitmix64 finalizer
// as mix. The update is a bijection in h for a fixed w and in w for a fixed
// h, so changing any bits of one word always changes the final state of its
// lane. The avalanche after every word also keeps differences in two words
// from cancelling, as they can under a bare xor-multiply step: there a flip
// of bit 63 passes through the multiply unchanged, so two high-bit flips in
// one lane undo each other. The eight lanes are independent dependency
// chains, so a long vector hashes at multiply throughput, not latency (four
// lanes still left it latency-bound). The 128-bit digest folds the lanes
// with the word count.
//
// Deterministic across runs and across hosts of equal endianness. Not
// cryptographic: a collision aliases two cache entries.

#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>

namespace somrm::support {

class WordHash {
 public:
  /// One word.
  void word(std::uint64_t w) {
    std::uint64_t& lane = lanes_[count_ % kLanes];
    lane = mix(lane ^ w);
    ++count_;
  }

  /// Length, then every double by bit pattern.
  void doubles(std::span<const double> xs) {
    word(xs.size());
    words(xs.size(),
          [&](std::size_t i) { return std::bit_cast<std::uint64_t>(xs[i]); });
  }

  /// Length, then every element widened to 64 bits.
  void sizes(std::span<const std::size_t> xs) {
    word(xs.size());
    words(xs.size(),
          [&](std::size_t i) { return static_cast<std::uint64_t>(xs[i]); });
  }

  /// Byte count, then the bytes as host-order words; a partial last word is
  /// zero-padded (the count tells the padding apart from data).
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    word(size);
    words(size / 8, [&](std::size_t i) {
      std::uint64_t w;
      std::memcpy(&w, p + 8 * i, sizeof w);
      return w;
    });
    if (const std::size_t tail = size % 8; tail != 0) {
      std::uint64_t w = 0;
      std::memcpy(&w, p + size - tail, tail);
      word(w);
    }
  }

  struct Digest {
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;
  };

  /// Even lanes fold into hi, odd lanes into lo. Each fold is a chain of
  /// bijections, so it stays injective in every single lane.
  Digest digest() const {
    std::uint64_t hi = count_;
    std::uint64_t lo = ~count_;
    for (std::size_t l = kLanes; l > 0; l -= 2) {
      hi = mix(lanes_[l - 2] ^ hi);
      lo = mix(lanes_[l - 1] ^ lo);
    }
    return {hi, lo};
  }

  /// The digest as 32 lowercase hex digits.
  std::string hex() const {
    const Digest d = digest();
    char buf[2 * 16 + 1];
    std::snprintf(buf, sizeof buf, "%016llx%016llx",
                  static_cast<unsigned long long>(d.hi),
                  static_cast<unsigned long long>(d.lo));
    return buf;
  }

 private:
  /// splitmix64's finalizer: a bijection on 64-bit words with full
  /// avalanche.
  static std::uint64_t mix(std::uint64_t x) {
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  static constexpr std::size_t kLanes = 8;

  /// Feeds @p n words from @p load(i): singly until the next word falls on
  /// lane 0, then a lane-width block at a time.
  template <class Load>
  void words(std::size_t n, Load load) {
    std::size_t i = 0;
    for (; i < n && count_ % kLanes != 0; ++i) word(load(i));
    const std::size_t blocks_begin = i;
    std::uint64_t lanes[kLanes];  // a local copy stays in registers
    std::copy(lanes_, lanes_ + kLanes, lanes);
    for (; i + kLanes <= n; i += kLanes)
      for (std::size_t l = 0; l < kLanes; ++l)
        lanes[l] = mix(lanes[l] ^ load(i + l));
    std::copy(lanes, lanes + kLanes, lanes_);
    count_ += i - blocks_begin;
    for (; i < n; ++i) word(load(i));
  }

  std::uint64_t lanes_[kLanes] = {
      0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL, 0xa4093822299f31d0ULL,
      0x082efa98ec4e6c89ULL, 0x452821e638d01377ULL, 0xbe5466cf34e90c6cULL,
      0xc0ac29b7c97c50ddULL, 0x3f84d5b5b5470917ULL};
  std::uint64_t count_ = 0;
};

}  // namespace somrm::support
