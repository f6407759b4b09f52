// Unit tests for the explicit SIMD kernel layer (core/simd_kernels.h).
//
// The load-bearing property is the BIT-IDENTITY CONTRACT: every kernel
// must produce byte-for-byte the output of the scalar reference at
// every dispatch level the CPU supports. Each test sweeps
//
//   * every available Level (scalar, simd128, avx2 when detected),
//   * lengths around every vector-width boundary (0, 1, 7, 8, 9, 15,
//     16, 17, 31, 32, 33, ...) so short and misaligned tails are hit,
//   * unaligned base pointers (the engine hands kernels interior
//     block offsets, not allocation starts),
//   * both Store modes (assign / AND) for the predicate kernels,
//
// against randomized inputs seeded deterministically, plus directed
// edge cases: sentinel codes (kNullCode / kMissingCode), d = 0
// (all-⊥ column: every lookup clamps to the sentinel slot), d = 1
// (dictionary of size 1), empty inputs, and the CompressStore
// no-overstore guarantee.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "sqlnf/core/encoded_table.h"
#include "sqlnf/core/simd_kernels.h"
#include "sqlnf/util/fnv.h"
#include "sqlnf/util/rng.h"

namespace sqlnf {
namespace simd {
namespace {

// Every level the CPU supports, scalar first. ClampToDetected inside
// the dispatchers would make higher levels silently legal anyway, but
// sweeping only real levels keeps "ran at avx2" honest in test names.
std::vector<Level> AvailableLevels() {
  std::vector<Level> levels{Level::kScalar};
  if (DetectedLevel() >= Level::kSimd128) levels.push_back(Level::kSimd128);
  if (DetectedLevel() >= Level::kAvx2) levels.push_back(Level::kAvx2);
  return levels;
}

// Lengths straddling the 8-lane and 16/32-byte boundaries, plus block
// sizes the engine actually uses.
const int kLengths[] = {0,  1,  2,  3,  7,   8,   9,   15,  16, 17,
                        31, 32, 33, 63, 100, 255, 511, 513, 2048};

// Offsets into an over-allocated buffer: kernels must accept interior
// (unaligned) pointers.
const int kOffsets[] = {0, 1, 3};

std::vector<uint32_t> RandomCodes(Rng* rng, int n, uint32_t d) {
  std::vector<uint32_t> codes(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double roll = rng->NextDouble();
    if (roll < 0.10) {
      codes[static_cast<size_t>(i)] = EncodedTable::kNullCode;
    } else if (roll < 0.15) {
      codes[static_cast<size_t>(i)] = EncodedTable::kMissingCode;
    } else if (d > 0) {
      codes[static_cast<size_t>(i)] =
          static_cast<uint32_t>(rng->Uniform(0, d - 1));
    } else {
      codes[static_cast<size_t>(i)] = EncodedTable::kNullCode;
    }
  }
  return codes;
}

std::vector<uint8_t> RandomBytes(Rng* rng, int n) {
  std::vector<uint8_t> bytes(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    bytes[static_cast<size_t>(i)] = rng->Chance(0.4) ? 1 : 0;
  }
  return bytes;
}

// Runs `body(level, n, offset, store)` over the full sweep grid.
template <typename Body>
void SweepMaskKernel(Body&& body) {
  for (Level level : AvailableLevels()) {
    for (int n : kLengths) {
      for (int offset : kOffsets) {
        body(level, n, offset, Store::kAssign);
        body(level, n, offset, Store::kAnd);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatch plumbing
// ---------------------------------------------------------------------------

TEST(SimdDispatchTest, TestOverridePinsActiveLevel) {
  // Without an override the CPU's best level is the active one.
  ClearLevelForTesting();
  EXPECT_EQ(ActiveLevel(), DetectedLevel());
  SetLevelForTesting(Level::kScalar);
  EXPECT_EQ(ActiveLevel(), Level::kScalar);
  // Requesting above the CPU clamps instead of faulting.
  SetLevelForTesting(Level::kAvx2);
  EXPECT_LE(ActiveLevel(), DetectedLevel());
  ClearLevelForTesting();
  EXPECT_EQ(ActiveLevel(), DetectedLevel());
}

// ---------------------------------------------------------------------------
// Predicate mask kernels vs the scalar reference
// ---------------------------------------------------------------------------

TEST(SimdKernelTest, EqNeCodeMatchScalar) {
  Rng rng(20260801);
  SweepMaskKernel([&](Level level, int n, int offset, Store store) {
    const uint32_t d = 7;
    std::vector<uint32_t> codes = RandomCodes(&rng, n + offset, d);
    std::vector<uint8_t> init = RandomBytes(&rng, n);
    for (uint32_t want :
         {uint32_t{0}, uint32_t{3}, EncodedTable::kNullCode,
          EncodedTable::kMissingCode}) {
      std::vector<uint8_t> got = init, ref = init;
      EqCode(level, codes.data() + offset, n, want, store, got.data());
      EqCode(Level::kScalar, codes.data() + offset, n, want, store,
             ref.data());
      ASSERT_EQ(got, ref) << "Eq level=" << LevelName(level) << " n=" << n
                          << " off=" << offset;
      got = init;
      ref = init;
      NeCode(level, codes.data() + offset, n, want, store, got.data());
      NeCode(Level::kScalar, codes.data() + offset, n, want, store,
             ref.data());
      ASSERT_EQ(got, ref) << "Ne level=" << LevelName(level) << " n=" << n
                          << " off=" << offset;
    }
  });
}

TEST(SimdKernelTest, CodeIntervalMatchesScalar) {
  Rng rng(20260802);
  SweepMaskKernel([&](Level level, int n, int offset, Store store) {
    const uint32_t d = 11;
    std::vector<uint32_t> codes = RandomCodes(&rng, n + offset, d);
    std::vector<uint8_t> init = RandomBytes(&rng, n);
    // Spans crossing 0, the full domain, and the unsigned wrap edge.
    const struct {
      uint32_t lo, span;
    } cases[] = {{0, 0}, {0, 1}, {0, d}, {3, 4}, {10, 0xFFFFFFF0u}};
    for (const auto& c : cases) {
      std::vector<uint8_t> got = init, ref = init;
      CodeInterval(level, codes.data() + offset, n, c.lo, c.span, store,
                   got.data());
      CodeInterval(Level::kScalar, codes.data() + offset, n, c.lo, c.span,
                   store, ref.data());
      ASSERT_EQ(got, ref) << "level=" << LevelName(level) << " n=" << n
                          << " off=" << offset << " lo=" << c.lo
                          << " span=" << c.span;
    }
  });
}

TEST(SimdKernelTest, RankIntervalMatchesScalar) {
  Rng rng(20260803);
  // d = 0 (all-⊥ column, rank is just the sentinel slot), d = 1
  // (dictionary of size 1), and a normal dictionary.
  for (uint32_t d : {uint32_t{0}, uint32_t{1}, uint32_t{13}}) {
    // A permutation-ish rank table with the kNoRank sentinel at slot d.
    std::vector<uint32_t> rank(d + 1);
    for (uint32_t i = 0; i < d; ++i) rank[i] = (i * 7 + 3) % d;
    rank[d] = 0xFFFFFFFFu;  // kNoRank: outside every interval
    SweepMaskKernel([&](Level level, int n, int offset, Store store) {
      std::vector<uint32_t> codes = RandomCodes(&rng, n + offset, d);
      std::vector<uint8_t> init = RandomBytes(&rng, n);
      const struct {
        uint32_t lo, span;
      } cases[] = {{0, 0}, {0, d}, {1, 2}, {0, 0xFFFFFFFFu}};
      for (const auto& c : cases) {
        std::vector<uint8_t> got = init, ref = init;
        RankInterval(level, codes.data() + offset, n, rank.data(), d, c.lo,
                     c.span, store, got.data());
        RankInterval(Level::kScalar, codes.data() + offset, n, rank.data(),
                     d, c.lo, c.span, store, ref.data());
        ASSERT_EQ(got, ref) << "level=" << LevelName(level) << " d=" << d
                            << " n=" << n << " off=" << offset;
      }
    });
  }
}

TEST(SimdKernelTest, ByteTableMatchesScalar) {
  Rng rng(20260804);
  for (uint32_t d : {uint32_t{0}, uint32_t{1}, uint32_t{9}}) {
    std::vector<uint8_t> table(d + 1 + kByteTablePad, 0);
    for (uint32_t i = 0; i <= d; ++i) {
      table[i] = rng.Chance(0.5) ? 1 : 0;
    }
    SweepMaskKernel([&](Level level, int n, int offset, Store store) {
      std::vector<uint32_t> codes = RandomCodes(&rng, n + offset, d);
      std::vector<uint8_t> init = RandomBytes(&rng, n);
      std::vector<uint8_t> got = init, ref = init;
      ByteTable(level, codes.data() + offset, n, table.data(), d, store,
                got.data());
      ByteTable(Level::kScalar, codes.data() + offset, n, table.data(), d,
                store, ref.data());
      ASSERT_EQ(got, ref) << "level=" << LevelName(level) << " d=" << d
                          << " n=" << n << " off=" << offset;
    });
  }
}

TEST(SimdKernelTest, OrBytesMatchesScalar) {
  Rng rng(20260805);
  for (Level level : AvailableLevels()) {
    for (int n : kLengths) {
      for (int offset : kOffsets) {
        std::vector<uint8_t> src = RandomBytes(&rng, n + offset);
        std::vector<uint8_t> dst = RandomBytes(&rng, n);
        std::vector<uint8_t> ref = dst;
        OrBytes(level, src.data() + offset, n, dst.data());
        OrBytes(Level::kScalar, src.data() + offset, n, ref.data());
        ASSERT_EQ(dst, ref) << "level=" << LevelName(level) << " n=" << n;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Emission kernels
// ---------------------------------------------------------------------------

TEST(SimdKernelTest, CompressStoreMatchesScalarAndNeverOverstores) {
  Rng rng(20260807);
  constexpr int kCanary = -12345;
  for (Level level : AvailableLevels()) {
    for (int n : kLengths) {
      for (int offset : kOffsets) {
        std::vector<uint8_t> match = RandomBytes(&rng, n + offset);
        const int expect = static_cast<int>(
            std::count(match.begin() + offset, match.end(), 1));
        // Exactly-sized window plus canaries: the kernel must write
        // nothing past the ids it returns.
        std::vector<int> got(static_cast<size_t>(expect) + 4, kCanary);
        std::vector<int> ref(static_cast<size_t>(expect) + 4, kCanary);
        const int base = 1000;
        EXPECT_EQ(expect, CompressStore(level, match.data() + offset, n,
                                        base, got.data()));
        EXPECT_EQ(expect, CompressStore(Level::kScalar, match.data() + offset,
                                        n, base, ref.data()));
        ASSERT_EQ(got, ref) << "level=" << LevelName(level) << " n=" << n
                            << " off=" << offset;
        for (int k = 0; k < 4; ++k) {
          ASSERT_EQ(got[static_cast<size_t>(expect) + k], kCanary)
              << "overstore at level=" << LevelName(level) << " n=" << n;
        }
        // Emitted ids are base-relative and strictly ascending.
        for (int k = 1; k < expect; ++k) {
          ASSERT_LT(got[k - 1], got[k]);
        }
        if (expect > 0) {
          ASSERT_GE(got[0], base);
          ASSERT_LT(got[expect - 1], base + n);
        }
      }
    }
  }
}

// All-zero and all-one match vectors exercise the skip-empty-word fast
// path and the full-vector permute respectively.
TEST(SimdKernelTest, CompressStoreDenseAndEmpty) {
  for (Level level : AvailableLevels()) {
    for (int n : {0, 1, 8, 17, 2048}) {
      std::vector<uint8_t> zeros(static_cast<size_t>(n), 0);
      std::vector<uint8_t> ones(static_cast<size_t>(n), 1);
      std::vector<int> out(static_cast<size_t>(n) + 1, -1);
      EXPECT_EQ(0, CompressStore(level, zeros.data(), n, 0, out.data()));
      EXPECT_EQ(n, CompressStore(level, ones.data(), n, 5, out.data()));
      for (int k = 0; k < n; ++k) ASSERT_EQ(out[k], 5 + k);
    }
  }
}

// ---------------------------------------------------------------------------
// Hash kernels
// ---------------------------------------------------------------------------

TEST(SimdKernelTest, FnvMixCodesMatchesFnvMix) {
  Rng rng(20260808);
  for (Level level : AvailableLevels()) {
    for (int n : kLengths) {
      std::vector<uint32_t> codes = RandomCodes(&rng, n, 1000);
      std::vector<uint64_t> h(static_cast<size_t>(n));
      std::vector<uint64_t> ref(static_cast<size_t>(n));
      for (int i = 0; i < n; ++i) {
        h[static_cast<size_t>(i)] = ref[static_cast<size_t>(i)] =
            kFnv64OffsetBasis + static_cast<uint64_t>(i) * 0x9E3779B97F4A7C15ull;
      }
      FnvMixCodes(level, codes.data(), n, h.data());
      for (int i = 0; i < n; ++i) {
        ref[static_cast<size_t>(i)] =
            FnvMix(ref[static_cast<size_t>(i)], codes[static_cast<size_t>(i)]);
      }
      ASSERT_EQ(h, ref) << "level=" << LevelName(level) << " n=" << n;
    }
  }
}

TEST(SimdKernelTest, FoldMaskMatchesScalar) {
  Rng rng(20260809);
  for (Level level : AvailableLevels()) {
    for (int n : kLengths) {
      std::vector<uint64_t> h(static_cast<size_t>(n));
      for (int i = 0; i < n; ++i) {
        h[static_cast<size_t>(i)] =
            (static_cast<uint64_t>(rng.Uniform(0, 1 << 30)) << 34) ^
            static_cast<uint64_t>(rng.Uniform(0, 1 << 30));
      }
      for (uint64_t mask : {uint64_t{0}, uint64_t{1}, uint64_t{1023},
                            uint64_t{(1u << 20) - 1}}) {
        std::vector<uint32_t> got(static_cast<size_t>(n) + 1, 0xAA55AA55u);
        std::vector<uint32_t> ref = got;
        FoldMask(level, h.data(), n, mask, got.data());
        FoldMask(Level::kScalar, h.data(), n, mask, ref.data());
        ASSERT_EQ(got, ref) << "level=" << LevelName(level) << " n=" << n
                            << " mask=" << mask;
      }
    }
  }
}

}  // namespace
}  // namespace simd
}  // namespace sqlnf
