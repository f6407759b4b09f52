// Implementation of the explicit SIMD kernel layer. Together with
// util/simd.h this is the only translation unit allowed to include
// intrinsics headers or touch SQLNF_SIMD_* macros (lint rule
// `simd-confinement`).
//
// Layout: dispatch state first, then per-kernel variants in scalar →
// 128-bit → AVX2 order, then the public dispatchers. The scalar
// bodies are the semantics; every vector body is a transliteration
// that must stay bit-identical (the kernel unit tests and the
// level-sweeping fuzz/differential harnesses check this).
//
// Vector techniques used below:
//   * mask expansion — a compare produces a per-lane bit mask
//     (movemask); kMaskBytes[m] expands the 8-bit mask to eight 0/1
//     match bytes in one 64-bit word, which is then stored or ANDed
//     into the output in a single 8-byte write.
//   * unsigned compares — SSE2/AVX2 only have signed 32-bit compares;
//     `t < span (unsigned)` becomes `(t ^ 2^31) <s (span ^ 2^31)`.
//     NEON compares unsigned natively.
//   * clamped gathers — rank/table lookups clamp codes with unsigned
//     min(code, d) BEFORE the gather, so the ⊥/miss sentinels
//     (0xFFFFFFFE/F) land on slot d and every index fits in a signed
//     i32 gather lane.
//   * compress-store — _mm256_permutevar8x32_epi32 with a 256-entry
//     permutation table packs selected row ids to the lane front; the
//     packed vector is spilled to a local buffer and only
//     popcount(mask) ids are memcpy'd out, because the destination
//     window is exactly sized per ParallelEmit chunk and a full
//     32-byte store would stomp the neighbouring chunk's window.

#include "sqlnf/core/simd_kernels.h"

#include <array>
#include <atomic>
#include <cstring>

#include "sqlnf/util/fnv.h"
#include "sqlnf/util/simd.h"

#if SQLNF_SIMD_X86
#include <immintrin.h>
#endif
#if SQLNF_SIMD_NEON
#include <arm_neon.h>
#endif

namespace sqlnf {
namespace simd {
namespace {

// ---------------------------------------------------------------------------
// Dispatch state
// ---------------------------------------------------------------------------

Level CpuMax() {
#if SQLNF_SIMD_HAVE_AVX2
  if (__builtin_cpu_supports("avx2")) return Level::kAvx2;
#endif
#if SQLNF_SIMD_X86 || SQLNF_SIMD_NEON
  return Level::kSimd128;
#else
  return Level::kScalar;
#endif
}

constexpr uint8_t kNoOverride = 0xFF;
std::atomic<uint8_t> g_test_override{kNoOverride};

// Requests above what the CPU/build supports degrade to the best
// available level instead of faulting on an illegal instruction.
Level ClampToDetected(Level level) {
  Level max = DetectedLevel();
  return level > max ? max : level;
}

// ---------------------------------------------------------------------------
// Lookup tables
// ---------------------------------------------------------------------------

// kMaskBytes[m] holds eight 0/1 bytes: byte j is bit j of m.
constexpr std::array<uint64_t, 256> MakeMaskBytes() {
  std::array<uint64_t, 256> t{};
  for (int m = 0; m < 256; ++m) {
    uint64_t w = 0;
    for (int j = 0; j < 8; ++j) {
      if (m & (1 << j)) w |= uint64_t{1} << (8 * j);
    }
    t[static_cast<size_t>(m)] = w;
  }
  return t;
}
constexpr std::array<uint64_t, 256> kMaskBytes = MakeMaskBytes();

// kCompress[m] is the permutevar8x32 index vector that packs the lanes
// whose bit is set in m to the front (ascending). Trailing lanes are
// zero; they are never stored (the copy is popcount-limited).
struct CompressTable {
  uint32_t idx[256][8];
};
constexpr CompressTable MakeCompressTable() {
  CompressTable t{};
  for (int m = 0; m < 256; ++m) {
    int k = 0;
    for (uint32_t lane = 0; lane < 8; ++lane) {
      if (m & (1 << lane)) t.idx[m][k++] = lane;
    }
    for (; k < 8; ++k) t.idx[m][k] = 0;
  }
  return t;
}
constexpr CompressTable kCompress = MakeCompressTable();

// Expands an 8-bit lane mask to eight 0/1 match bytes and stores or
// ANDs them over dst in one 8-byte write.
inline void StoreMask8(uint32_t m, bool and_mode, uint8_t* dst) {
  uint64_t bytes = kMaskBytes[m & 0xFFu];
  if (and_mode) {
    uint64_t old = 0;
    std::memcpy(&old, dst, 8);
    bytes &= old;
  }
  std::memcpy(dst, &bytes, 8);
}

// ---------------------------------------------------------------------------
// Scalar reference kernels — the differential oracle. Auto-
// vectorization is disabled (SQLNF_SIMD_SCALAR_FN / NO_AUTOVEC) so the
// scalar level is genuinely scalar: it anchors both the correctness
// sweep and the E19 speedup baseline. Each vector kernel's tail loop
// reuses these over the remainder.
// ---------------------------------------------------------------------------

SQLNF_SIMD_SCALAR_FN void EqCodeScalar(const uint32_t* codes, int n,
                                       uint32_t want, bool and_mode,
                                       uint8_t* out) {
  if (and_mode) {
    SQLNF_SIMD_NO_AUTOVEC
    for (int i = 0; i < n; ++i) {
      out[i] &= static_cast<uint8_t>(codes[i] == want);
    }
  } else {
    SQLNF_SIMD_NO_AUTOVEC
    for (int i = 0; i < n; ++i) {
      out[i] = static_cast<uint8_t>(codes[i] == want);
    }
  }
}

SQLNF_SIMD_SCALAR_FN void NeCodeScalar(const uint32_t* codes, int n,
                                       uint32_t want, bool and_mode,
                                       uint8_t* out) {
  if (and_mode) {
    SQLNF_SIMD_NO_AUTOVEC
    for (int i = 0; i < n; ++i) {
      out[i] &= static_cast<uint8_t>(codes[i] != want);
    }
  } else {
    SQLNF_SIMD_NO_AUTOVEC
    for (int i = 0; i < n; ++i) {
      out[i] = static_cast<uint8_t>(codes[i] != want);
    }
  }
}

SQLNF_SIMD_SCALAR_FN void CodeIntervalScalar(const uint32_t* codes, int n,
                                             uint32_t lo, uint32_t span,
                                             bool and_mode, uint8_t* out) {
  if (and_mode) {
    SQLNF_SIMD_NO_AUTOVEC
    for (int i = 0; i < n; ++i) {
      out[i] &= static_cast<uint8_t>(codes[i] - lo < span);
    }
  } else {
    SQLNF_SIMD_NO_AUTOVEC
    for (int i = 0; i < n; ++i) {
      out[i] = static_cast<uint8_t>(codes[i] - lo < span);
    }
  }
}

SQLNF_SIMD_SCALAR_FN void RankIntervalScalar(const uint32_t* codes, int n,
                                             const uint32_t* rank, uint32_t d,
                                             uint32_t lo, uint32_t span,
                                             bool and_mode, uint8_t* out) {
  if (and_mode) {
    SQLNF_SIMD_NO_AUTOVEC
    for (int i = 0; i < n; ++i) {
      uint32_t c = codes[i];
      out[i] &= static_cast<uint8_t>(rank[c < d ? c : d] - lo < span);
    }
  } else {
    SQLNF_SIMD_NO_AUTOVEC
    for (int i = 0; i < n; ++i) {
      uint32_t c = codes[i];
      out[i] = static_cast<uint8_t>(rank[c < d ? c : d] - lo < span);
    }
  }
}

SQLNF_SIMD_SCALAR_FN void ByteTableScalar(const uint32_t* codes, int n,
                                          const uint8_t* table, uint32_t d,
                                          bool and_mode, uint8_t* out) {
  if (and_mode) {
    SQLNF_SIMD_NO_AUTOVEC
    for (int i = 0; i < n; ++i) {
      uint32_t c = codes[i];
      out[i] &= static_cast<uint8_t>(table[c < d ? c : d] != 0);
    }
  } else {
    SQLNF_SIMD_NO_AUTOVEC
    for (int i = 0; i < n; ++i) {
      uint32_t c = codes[i];
      out[i] = static_cast<uint8_t>(table[c < d ? c : d] != 0);
    }
  }
}

SQLNF_SIMD_SCALAR_FN void OrBytesScalar(const uint8_t* src, int n,
                                        uint8_t* dst) {
  SQLNF_SIMD_NO_AUTOVEC
  for (int i = 0; i < n; ++i) dst[i] |= src[i];
}

SQLNF_SIMD_SCALAR_FN int64_t CountBytesScalar(const uint8_t* bytes, int n) {
  int64_t total = 0;
  SQLNF_SIMD_NO_AUTOVEC
  for (int i = 0; i < n; ++i) total += bytes[i];
  return total;
}

SQLNF_SIMD_SCALAR_FN int CompressStoreScalar(const uint8_t* match, int n,
                                             int base, int* out) {
  int count = 0;
  SQLNF_SIMD_NO_AUTOVEC
  for (int i = 0; i < n; ++i) {
    if (match[i] != 0) out[count++] = base + i;
  }
  return count;
}

SQLNF_SIMD_SCALAR_FN void FnvMixCodesScalar(const uint32_t* codes, int n,
                                            uint64_t* h) {
  SQLNF_SIMD_NO_AUTOVEC
  for (int i = 0; i < n; ++i) {
    h[i] = (h[i] ^ codes[i]) * kFnv64Prime;
  }
}

SQLNF_SIMD_SCALAR_FN void FoldMaskScalar(const uint64_t* h, int n,
                                         uint64_t mask, uint32_t* out) {
  SQLNF_SIMD_NO_AUTOVEC
  for (int i = 0; i < n; ++i) {
    out[i] = static_cast<uint32_t>((h[i] ^ (h[i] >> 32)) & mask);
  }
}

SQLNF_SIMD_SCALAR_FN void GatherCodesScalar(const uint32_t* codes,
                                            const int* rows, int n,
                                            uint32_t* out) {
  SQLNF_SIMD_NO_AUTOVEC
  for (int i = 0; i < n; ++i) out[i] = codes[rows[i]];
}

// ---------------------------------------------------------------------------
// SSE2 kernels (x86-64 baseline — no target attribute needed). Eight
// lanes per iteration via two 128-bit vectors, so the mask-expansion
// write stays a single 8-byte word. Gather-shaped kernels
// (RankInterval / ByteTable / GatherCodes) and the permute-based
// compress-store have no SSE2 story worth having — they fall through
// to the scalar reference in the dispatchers.
// ---------------------------------------------------------------------------

#if SQLNF_SIMD_X86

// Combines the movemask nibbles of two 4-lane compares into one 8-bit
// lane mask (lanes i..i+7).
inline uint32_t Mask8Sse2(__m128i eq_lo, __m128i eq_hi) {
  uint32_t m = static_cast<uint32_t>(_mm_movemask_ps(_mm_castsi128_ps(eq_lo)));
  m |= static_cast<uint32_t>(_mm_movemask_ps(_mm_castsi128_ps(eq_hi))) << 4;
  return m;
}

void EqCodeSse2(const uint32_t* codes, int n, uint32_t want, bool and_mode,
                uint8_t* out) {
  const __m128i w = _mm_set1_epi32(static_cast<int>(want));
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    __m128i a =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + i));
    __m128i b =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + i + 4));
    StoreMask8(Mask8Sse2(_mm_cmpeq_epi32(a, w), _mm_cmpeq_epi32(b, w)),
               and_mode, out + i);
  }
  EqCodeScalar(codes + i, n - i, want, and_mode, out + i);
}

void NeCodeSse2(const uint32_t* codes, int n, uint32_t want, bool and_mode,
                uint8_t* out) {
  const __m128i w = _mm_set1_epi32(static_cast<int>(want));
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    __m128i a =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + i));
    __m128i b =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + i + 4));
    uint32_t m =
        Mask8Sse2(_mm_cmpeq_epi32(a, w), _mm_cmpeq_epi32(b, w)) ^ 0xFFu;
    StoreMask8(m, and_mode, out + i);
  }
  NeCodeScalar(codes + i, n - i, want, and_mode, out + i);
}

void CodeIntervalSse2(const uint32_t* codes, int n, uint32_t lo,
                      uint32_t span, bool and_mode, uint8_t* out) {
  const __m128i lov = _mm_set1_epi32(static_cast<int>(lo));
  const __m128i bias = _mm_set1_epi32(static_cast<int>(0x80000000u));
  const __m128i spanb = _mm_set1_epi32(static_cast<int>(span ^ 0x80000000u));
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    __m128i a =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + i));
    __m128i b =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + i + 4));
    __m128i ta = _mm_xor_si128(_mm_sub_epi32(a, lov), bias);
    __m128i tb = _mm_xor_si128(_mm_sub_epi32(b, lov), bias);
    StoreMask8(
        Mask8Sse2(_mm_cmplt_epi32(ta, spanb), _mm_cmplt_epi32(tb, spanb)),
        and_mode, out + i);
  }
  CodeIntervalScalar(codes + i, n - i, lo, span, and_mode, out + i);
}

void OrBytesSse2(const uint8_t* src, int n, uint8_t* dst) {
  int i = 0;
  for (; i + 16 <= n; i += 16) {
    __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_or_si128(s, d));
  }
  OrBytesScalar(src + i, n - i, dst + i);
}

int64_t CountBytesSse2(const uint8_t* bytes, int n) {
  __m128i acc = _mm_setzero_si128();
  const __m128i zero = _mm_setzero_si128();
  int i = 0;
  for (; i + 16 <= n; i += 16) {
    __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes + i));
    acc = _mm_add_epi64(acc, _mm_sad_epu8(v, zero));
  }
  alignas(16) uint64_t lanes[2];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), acc);
  return static_cast<int64_t>(lanes[0] + lanes[1]) +
         CountBytesScalar(bytes + i, n - i);
}

void FoldMaskSse2(const uint64_t* h, int n, uint64_t mask, uint32_t* out) {
  const __m128i maskv = _mm_set1_epi64x(static_cast<long long>(mask));
  int i = 0;
  for (; i + 2 <= n; i += 2) {
    __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(h + i));
    __m128i f = _mm_and_si128(_mm_xor_si128(v, _mm_srli_epi64(v, 32)), maskv);
    // Pack the two low dwords (lanes 0 and 2) into the low 8 bytes.
    __m128i packed = _mm_shuffle_epi32(f, _MM_SHUFFLE(3, 3, 2, 0));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + i), packed);
  }
  FoldMaskScalar(h + i, n - i, mask, out + i);
}

#endif  // SQLNF_SIMD_X86

// ---------------------------------------------------------------------------
// NEON kernels — the portable 128-bit path on AArch64. Only the
// streaming compares are vectorized (NEON compares unsigned natively);
// gather-shaped kernels stay scalar, same as SSE2.
// ---------------------------------------------------------------------------

#if SQLNF_SIMD_NEON

// Narrows two 32-bit lane masks (0 / 0xFFFFFFFF) to eight 0/1 match
// bytes and stores or ANDs them.
inline void StoreLanes8Neon(uint32x4_t m_lo, uint32x4_t m_hi, bool and_mode,
                            uint8_t* dst) {
  uint16x8_t m16 = vcombine_u16(vmovn_u32(m_lo), vmovn_u32(m_hi));
  uint8x8_t bytes = vand_u8(vmovn_u16(m16), vdup_n_u8(1));
  if (and_mode) bytes = vand_u8(bytes, vld1_u8(dst));
  vst1_u8(dst, bytes);
}

void EqCodeNeon(const uint32_t* codes, int n, uint32_t want, bool and_mode,
                uint8_t* out) {
  const uint32x4_t w = vdupq_n_u32(want);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    StoreLanes8Neon(vceqq_u32(vld1q_u32(codes + i), w),
                    vceqq_u32(vld1q_u32(codes + i + 4), w), and_mode,
                    out + i);
  }
  EqCodeScalar(codes + i, n - i, want, and_mode, out + i);
}

void NeCodeNeon(const uint32_t* codes, int n, uint32_t want, bool and_mode,
                uint8_t* out) {
  const uint32x4_t w = vdupq_n_u32(want);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    StoreLanes8Neon(vmvnq_u32(vceqq_u32(vld1q_u32(codes + i), w)),
                    vmvnq_u32(vceqq_u32(vld1q_u32(codes + i + 4), w)),
                    and_mode, out + i);
  }
  NeCodeScalar(codes + i, n - i, want, and_mode, out + i);
}

void CodeIntervalNeon(const uint32_t* codes, int n, uint32_t lo,
                      uint32_t span, bool and_mode, uint8_t* out) {
  const uint32x4_t lov = vdupq_n_u32(lo);
  const uint32x4_t spanv = vdupq_n_u32(span);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    uint32x4_t ta = vsubq_u32(vld1q_u32(codes + i), lov);
    uint32x4_t tb = vsubq_u32(vld1q_u32(codes + i + 4), lov);
    StoreLanes8Neon(vcltq_u32(ta, spanv), vcltq_u32(tb, spanv), and_mode,
                    out + i);
  }
  CodeIntervalScalar(codes + i, n - i, lo, span, and_mode, out + i);
}

#endif  // SQLNF_SIMD_NEON

// ---------------------------------------------------------------------------
// AVX2 kernels. Compiled with a per-function target attribute so the
// rest of the binary keeps the baseline ISA; whether they run is
// decided at runtime (ActiveLevel). Eight 32-bit lanes per iteration.
// ---------------------------------------------------------------------------

#if SQLNF_SIMD_HAVE_AVX2

SQLNF_SIMD_TARGET_AVX2 void EqCodeAvx2(const uint32_t* codes, int n,
                                       uint32_t want, bool and_mode,
                                       uint8_t* out) {
  const __m256i w = _mm256_set1_epi32(static_cast<int>(want));
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes + i));
    uint32_t m = static_cast<uint32_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(v, w))));
    StoreMask8(m, and_mode, out + i);
  }
  EqCodeScalar(codes + i, n - i, want, and_mode, out + i);
}

SQLNF_SIMD_TARGET_AVX2 void CodeIntervalAvx2(const uint32_t* codes, int n,
                                             uint32_t lo, uint32_t span,
                                             bool and_mode, uint8_t* out) {
  const __m256i lov = _mm256_set1_epi32(static_cast<int>(lo));
  const __m256i bias = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  const __m256i spanb =
      _mm256_set1_epi32(static_cast<int>(span ^ 0x80000000u));
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes + i));
    // t <u span  ⟺  (span ^ 2^31) >s (t ^ 2^31); AVX2 only has cmpgt.
    __m256i t = _mm256_xor_si256(_mm256_sub_epi32(v, lov), bias);
    __m256i cmp = _mm256_cmpgt_epi32(spanb, t);
    uint32_t m = static_cast<uint32_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(cmp)));
    StoreMask8(m, and_mode, out + i);
  }
  CodeIntervalScalar(codes + i, n - i, lo, span, and_mode, out + i);
}

SQLNF_SIMD_TARGET_AVX2 void RankIntervalAvx2(const uint32_t* codes, int n,
                                             const uint32_t* rank, uint32_t d,
                                             uint32_t lo, uint32_t span,
                                             bool and_mode, uint8_t* out) {
  const __m256i dv = _mm256_set1_epi32(static_cast<int>(d));
  const __m256i lov = _mm256_set1_epi32(static_cast<int>(lo));
  const __m256i bias = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  const __m256i spanb =
      _mm256_set1_epi32(static_cast<int>(span ^ 0x80000000u));
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes + i));
    // Unsigned clamp first: ⊥/miss (0xFFFFFFFE/F) land on the sentinel
    // slot d, and every index is then ≤ d < 2^31, safe for the signed
    // i32 gather.
    __m256i idx = _mm256_min_epu32(v, dv);
    __m256i g = _mm256_i32gather_epi32(reinterpret_cast<const int*>(rank),
                                       idx, 4);
    __m256i t = _mm256_xor_si256(_mm256_sub_epi32(g, lov), bias);
    uint32_t m = static_cast<uint32_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(spanb, t))));
    StoreMask8(m, and_mode, out + i);
  }
  RankIntervalScalar(codes + i, n - i, rank, d, lo, span, and_mode, out + i);
}

SQLNF_SIMD_TARGET_AVX2 void ByteTableAvx2(const uint32_t* codes, int n,
                                          const uint8_t* table, uint32_t d,
                                          bool and_mode, uint8_t* out) {
  const __m256i dv = _mm256_set1_epi32(static_cast<int>(d));
  const __m256i low_byte = _mm256_set1_epi32(0xFF);
  const __m256i zero = _mm256_setzero_si256();
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes + i));
    __m256i idx = _mm256_min_epu32(v, dv);
    // Scale-1 gather reads 4 bytes at table+idx; the table carries
    // kByteTablePad zero bytes past slot d so the over-read is in
    // bounds. Only the low byte is the membership bit.
    __m256i g = _mm256_i32gather_epi32(reinterpret_cast<const int*>(table),
                                       idx, 1);
    __m256i b = _mm256_and_si256(g, low_byte);
    uint32_t z = static_cast<uint32_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(b, zero))));
    StoreMask8(~z & 0xFFu, and_mode, out + i);
  }
  ByteTableScalar(codes + i, n - i, table, d, and_mode, out + i);
}

SQLNF_SIMD_TARGET_AVX2 int64_t CountBytesAvx2(const uint8_t* bytes, int n) {
  __m256i acc = _mm256_setzero_si256();
  const __m256i zero = _mm256_setzero_si256();
  int i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bytes + i));
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(v, zero));
  }
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  return static_cast<int64_t>(lanes[0] + lanes[1] + lanes[2] + lanes[3]) +
         CountBytesScalar(bytes + i, n - i);
}

SQLNF_SIMD_TARGET_AVX2 int CompressStoreAvx2(const uint8_t* match, int n,
                                             int base, int* out) {
  const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m128i zero128 = _mm_setzero_si128();
  int count = 0;
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t w = 0;
    std::memcpy(&w, match + i, 8);
    if (w == 0) continue;
    __m128i bytes = _mm_cvtsi64_si128(static_cast<long long>(w));
    uint32_t m = ~static_cast<uint32_t>(
                     _mm_movemask_epi8(_mm_cmpeq_epi8(bytes, zero128))) &
                 0xFFu;
    __m256i ids = _mm256_add_epi32(_mm256_set1_epi32(base + i), iota);
    __m256i perm = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(kCompress.idx[m]));
    __m256i packed = _mm256_permutevar8x32_epi32(ids, perm);
    // Spill locally and copy exactly popcount ids: the output window
    // is sized to the chunk's match count (ParallelEmit), and a full
    // 32-byte store would cross into the next chunk's window.
    alignas(32) int buf[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(buf), packed);
    int c = __builtin_popcount(m);
    std::memcpy(out + count, buf, static_cast<size_t>(c) * sizeof(int));
    count += c;
  }
  count += CompressStoreScalar(match + i, n - i, base + i, out + count);
  return count;
}

SQLNF_SIMD_TARGET_AVX2 void FoldMaskAvx2(const uint64_t* h, int n,
                                         uint64_t mask, uint32_t* out) {
  const __m256i maskv = _mm256_set1_epi64x(static_cast<long long>(mask));
  // Packs the low dwords of the four 64-bit lanes into the low 128.
  const __m256i pack = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(h + i));
    __m256i f =
        _mm256_and_si256(_mm256_xor_si256(v, _mm256_srli_epi64(v, 32)), maskv);
    __m128i packed =
        _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(f, pack));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), packed);
  }
  FoldMaskScalar(h + i, n - i, mask, out + i);
}

#endif  // SQLNF_SIMD_HAVE_AVX2

}  // namespace

// ---------------------------------------------------------------------------
// Dispatch API
// ---------------------------------------------------------------------------

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kSimd128:
      return "simd128";
    case Level::kAvx2:
      return "avx2";
  }
  return "unknown";
}

Level DetectedLevel() {
  static const Level cached = CpuMax();
  return cached;
}

Level ActiveLevel() {
  uint8_t o = g_test_override.load(std::memory_order_relaxed);
  if (o != kNoOverride) return static_cast<Level>(o);
  return DetectedLevel();
}

void SetLevelForTesting(Level level) {
  g_test_override.store(static_cast<uint8_t>(ClampToDetected(level)),
                        std::memory_order_relaxed);
}

void ClearLevelForTesting() {
  g_test_override.store(kNoOverride, std::memory_order_relaxed);
}

void EqCode(Level level, const uint32_t* codes, int n, uint32_t want,
            Store store, uint8_t* out) {
  const bool and_mode = store == Store::kAnd;
  const Level l = ClampToDetected(level);
#if SQLNF_SIMD_HAVE_AVX2
  if (l == Level::kAvx2) {
    EqCodeAvx2(codes, n, want, and_mode, out);
    return;
  }
#endif
#if SQLNF_SIMD_X86
  if (l >= Level::kSimd128) {
    EqCodeSse2(codes, n, want, and_mode, out);
    return;
  }
#elif SQLNF_SIMD_NEON
  if (l >= Level::kSimd128) {
    EqCodeNeon(codes, n, want, and_mode, out);
    return;
  }
#endif
  (void)l;
  EqCodeScalar(codes, n, want, and_mode, out);
}

void NeCode(Level level, const uint32_t* codes, int n, uint32_t want,
            Store store, uint8_t* out) {
  const bool and_mode = store == Store::kAnd;
  const Level l = ClampToDetected(level);
  // No AVX2 variant: it beat SSE2 by under 1.3× in E19.
#if SQLNF_SIMD_X86
  if (l >= Level::kSimd128) {
    NeCodeSse2(codes, n, want, and_mode, out);
    return;
  }
#elif SQLNF_SIMD_NEON
  if (l >= Level::kSimd128) {
    NeCodeNeon(codes, n, want, and_mode, out);
    return;
  }
#endif
  (void)l;
  NeCodeScalar(codes, n, want, and_mode, out);
}

void CodeInterval(Level level, const uint32_t* codes, int n, uint32_t lo,
                  uint32_t span, Store store, uint8_t* out) {
  const bool and_mode = store == Store::kAnd;
  const Level l = ClampToDetected(level);
#if SQLNF_SIMD_HAVE_AVX2
  if (l == Level::kAvx2) {
    CodeIntervalAvx2(codes, n, lo, span, and_mode, out);
    return;
  }
#endif
#if SQLNF_SIMD_X86
  if (l >= Level::kSimd128) {
    CodeIntervalSse2(codes, n, lo, span, and_mode, out);
    return;
  }
#elif SQLNF_SIMD_NEON
  if (l >= Level::kSimd128) {
    CodeIntervalNeon(codes, n, lo, span, and_mode, out);
    return;
  }
#endif
  (void)l;
  CodeIntervalScalar(codes, n, lo, span, and_mode, out);
}

void RankInterval(Level level, const uint32_t* codes, int n,
                  const uint32_t* rank, uint32_t d, uint32_t lo,
                  uint32_t span, Store store, uint8_t* out) {
  const bool and_mode = store == Store::kAnd;
  const Level l = ClampToDetected(level);
#if SQLNF_SIMD_HAVE_AVX2
  if (l == Level::kAvx2) {
    RankIntervalAvx2(codes, n, rank, d, lo, span, and_mode, out);
    return;
  }
#endif
  // No 128-bit variant: the kernel is gather-bound and SSE2/NEON have
  // no gather — the scalar reference is the 128-bit path too.
  (void)l;
  RankIntervalScalar(codes, n, rank, d, lo, span, and_mode, out);
}

void ByteTable(Level level, const uint32_t* codes, int n,
               const uint8_t* table, uint32_t d, Store store, uint8_t* out) {
  const bool and_mode = store == Store::kAnd;
  const Level l = ClampToDetected(level);
#if SQLNF_SIMD_HAVE_AVX2
  if (l == Level::kAvx2) {
    ByteTableAvx2(codes, n, table, d, and_mode, out);
    return;
  }
#endif
  (void)l;
  ByteTableScalar(codes, n, table, d, and_mode, out);
}

void OrBytes(Level level, const uint8_t* src, int n, uint8_t* dst) {
  const Level l = ClampToDetected(level);
  // No AVX2 variant: it beat SSE2 by under 1.3× in E19.
#if SQLNF_SIMD_X86
  if (l >= Level::kSimd128) {
    OrBytesSse2(src, n, dst);
    return;
  }
#endif
  (void)l;
  OrBytesScalar(src, n, dst);
}

int64_t CountBytes(Level level, const uint8_t* bytes, int n) {
  const Level l = ClampToDetected(level);
#if SQLNF_SIMD_HAVE_AVX2
  if (l == Level::kAvx2) return CountBytesAvx2(bytes, n);
#endif
#if SQLNF_SIMD_X86
  if (l >= Level::kSimd128) return CountBytesSse2(bytes, n);
#endif
  (void)l;
  return CountBytesScalar(bytes, n);
}

int CompressStore(Level level, const uint8_t* match, int n, int base,
                  int* out) {
  const Level l = ClampToDetected(level);
#if SQLNF_SIMD_HAVE_AVX2
  if (l == Level::kAvx2) return CompressStoreAvx2(match, n, base, out);
#endif
  (void)l;
  return CompressStoreScalar(match, n, base, out);
}

void FnvMixCodes(Level level, const uint32_t* codes, int n, uint64_t* h) {
  // No vector variant: the 64-bit multiply is port-bound, and neither
  // SSE2 (two lanes per multiply) nor AVX2 (four lanes rebuilt from
  // mul_epu32 partial products) beat this loop by 1.3× in E19.
  (void)level;
  FnvMixCodesScalar(codes, n, h);
}

void FoldMask(Level level, const uint64_t* h, int n, uint64_t mask,
              uint32_t* out) {
  const Level l = ClampToDetected(level);
#if SQLNF_SIMD_HAVE_AVX2
  if (l == Level::kAvx2) {
    FoldMaskAvx2(h, n, mask, out);
    return;
  }
#endif
#if SQLNF_SIMD_X86
  if (l >= Level::kSimd128) {
    FoldMaskSse2(h, n, mask, out);
    return;
  }
#endif
  (void)l;
  FoldMaskScalar(h, n, mask, out);
}

void GatherCodes(Level level, const uint32_t* codes, const int* rows, int n,
                 uint32_t* out) {
  // No vector variant: random-access loads bound it, and the AVX2
  // i32gather beat this loop by under 1.3× in E19.
  (void)level;
  GatherCodesScalar(codes, rows, n, out);
}

}  // namespace simd
}  // namespace sqlnf
