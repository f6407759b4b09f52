// Explicit SIMD kernels over uint32 code arrays and uint8 match bytes —
// the vector layer under the engine's four hottest loops:
//
//   * CompiledPredicate::ApplyAtom   EqCode / NeCode / CodeInterval /
//                                    RankInterval / ByteTable / OrBytes
//   * ParallelEmit count/fill        CountBytes / CompressStore
//   * CodeHashIndex build & probe    FnvMixCodes / FoldMask
//   * validator radix bucketing      GatherCodes
//
// Each kernel ships in up to three compile-time ISA variants — a scalar
// reference (auto-vectorization disabled: it is the differential
// oracle), a portable 128-bit path (SSE2 on x86-64, NEON on AArch64),
// and AVX2 — selected by the explicit `Level` argument. A variant
// stays only if it beats the level below it by ≥ 1.3× in E19
// (BENCH_simd.json); a level without a variant of its own runs the
// next lower one, down to the scalar reference. Call sites
// pass ActiveLevel(), the runtime CPU detection; tests pass levels
// directly (or pin ActiveLevel with SetLevelForTesting) to sweep them.
// Every dispatcher clamps the requested level to what the CPU actually
// supports, so asking for AVX2 on an SSE2-only machine degrades
// instead of faulting.
//
// THE BIT-IDENTITY CONTRACT: for identical inputs, every kernel
// produces byte-for-byte identical output at every level. ⊥ semantics
// ride on the same code/rank tricks as the scalar loops they replace
// (kNullCode wrapping outside intervals, the min(code, d) gather clamp
// onto the sentinel slot), so the dispatch level can never change a
// query result — which is what makes the forced-scalar CI leg safe,
// and what the predicate-fuzzer and executor differential harnesses
// enforce by sweeping levels.
//
// This header is deliberately ISA-agnostic: no intrinsics, no feature
// macros (the sqlnf_lint `simd-confinement` rule confines those to
// util/simd.h + core/simd_kernels.cc).

#ifndef SQLNF_CORE_SIMD_KERNELS_H_
#define SQLNF_CORE_SIMD_KERNELS_H_

#include <cstdint>

namespace sqlnf {
namespace simd {

/// Dispatch levels, ordered: higher levels may only be selected when
/// the CPU supports them. kSimd128 is SSE2 on x86-64 and NEON on
/// AArch64 (the portable 128-bit path); on other targets it aliases
/// the scalar reference.
enum class Level : uint8_t {
  kScalar = 0,
  kSimd128 = 1,
  kAvx2 = 2,
};

/// Canonical lowercase name ("scalar", "simd128", "avx2").
const char* LevelName(Level level);

/// The best level this CPU (and build) supports — compile-time ISA
/// availability ∧ runtime CPU detection.
Level DetectedLevel();

/// The level production call sites use: the test override if one is
/// set, else DetectedLevel(). Never exceeds DetectedLevel().
Level ActiveLevel();

/// Pins ActiveLevel() for tests (clamped to DetectedLevel()); sweep
/// harnesses use this to run every level in one process.
void SetLevelForTesting(Level level);

/// Removes the test override.
void ClearLevelForTesting();

/// How a predicate kernel combines with the bytes already in `out`:
/// the first atom of a conjunction assigns, later atoms AND — so no
/// fill-with-ones pass precedes a conjunction's scan loops.
enum class Store : uint8_t {
  kAssign,
  kAnd,
};

/// ByteTable gathers 4 bytes at a time on the AVX2 path, so membership
/// tables must be allocated with this many zero pad bytes past the
/// last live slot (index d).
constexpr int kByteTablePad = 3;

/// out[i] ?= (codes[i] == want), i in [0, n).
void EqCode(Level level, const uint32_t* codes, int n, uint32_t want,
            Store store, uint8_t* out);

/// out[i] ?= (codes[i] != want).
void NeCode(Level level, const uint32_t* codes, int n, uint32_t want,
            Store store, uint8_t* out);

/// out[i] ?= (codes[i] - lo < span), all unsigned: the ordered-
/// dictionary interval test (kNullCode wraps far above any span, so ⊥
/// drops out branch-free).
void CodeInterval(Level level, const uint32_t* codes, int n, uint32_t lo,
                  uint32_t span, Store store, uint8_t* out);

/// out[i] ?= (rank[min(codes[i], d)] - lo < span): the rank-gather
/// interval test. `rank` must carry d + 1 entries — slot d is the
/// kNoRank sentinel kNullCode clamps onto.
void RankInterval(Level level, const uint32_t* codes, int n,
                  const uint32_t* rank, uint32_t d, uint32_t lo,
                  uint32_t span, Store store, uint8_t* out);

/// out[i] ?= (table[min(codes[i], d)] != 0): byte-table membership
/// (the IN kernel). `table` holds d + 1 live slots (slot d is ⊥'s
/// membership) followed by kByteTablePad zero bytes.
void ByteTable(Level level, const uint32_t* codes, int n,
               const uint8_t* table, uint32_t d, Store store, uint8_t* out);

/// dst[i] |= src[i]: the disjunct merge of EvalBlock.
void OrBytes(Level level, const uint8_t* src, int n, uint8_t* dst);

/// Sum of `bytes[0..n)` — the count phase over 0/1 match bytes.
int64_t CountBytes(Level level, const uint8_t* bytes, int n);

/// Appends base + i to `out` for every i with match[i] != 0, ascending;
/// returns how many were written (the fill phase's compress-store).
/// `out` must have room for CountBytes(match, n) entries.
int CompressStore(Level level, const uint8_t* match, int n, int base,
                  int* out);

/// h[i] = (h[i] ^ codes[i]) * kFnv64Prime — one FNV-1a column fold
/// over a row range. Chaining per key column reproduces
/// CodeHashIndex::HashKey exactly (same mix order per row). Scalar at
/// every level: neither an SSE2 nor an AVX2 variant beat it by 1.3×.
void FnvMixCodes(Level level, const uint32_t* codes, int n, uint64_t* h);

/// out[i] = uint32((h[i] ^ (h[i] >> 32)) & mask): the bucket-id fold
/// of CodeHashIndex, batched for the build/probe histogram passes.
/// Requires mask < 2^32 (bucket counts are int-sized).
void FoldMask(Level level, const uint64_t* h, int n, uint64_t mask,
              uint32_t* out);

/// out[i] = codes[rows[i]]: the row-list gather of radix bucketing.
/// Scalar at every level: the AVX2 gather did not beat it by 1.3×.
void GatherCodes(Level level, const uint32_t* codes, const int* rows,
                 int n, uint32_t* out);

}  // namespace simd
}  // namespace sqlnf

#endif  // SQLNF_CORE_SIMD_KERNELS_H_
