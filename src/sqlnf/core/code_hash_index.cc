#include "sqlnf/core/code_hash_index.h"

#include <algorithm>

#include "sqlnf/core/simd_kernels.h"
#include "sqlnf/util/fnv.h"

namespace sqlnf {
namespace {

// Rows per bucket-id tile in the count/fill passes: big enough to
// amortize the kernel dispatch, small enough that the uint32 bucket-id
// scratch stays in L1 alongside the histogram.
constexpr int kHashTile = 512;

}  // namespace

uint64_t CodeHashIndex::HashKey(
    const std::vector<const std::vector<uint32_t>*>& keys, int row) {
  uint64_t h = kFnv64OffsetBasis;
  for (const std::vector<uint32_t>* col : keys) {
    h = FnvMix(h, (*col)[row]);
  }
  return h;
}

void CodeHashIndex::HashRows(
    const std::vector<const std::vector<uint32_t>*>& keys, int begin,
    int end, uint64_t* out) {
  const int n = end - begin;
  if (n <= 0) return;
  std::fill(out, out + n, kFnv64OffsetBasis);
  // Column-major mixing: every row folds its columns in list order,
  // exactly the HashKey sequence, just batched across rows.
  const simd::Level level = simd::ActiveLevel();
  for (const std::vector<uint32_t>* col : keys) {
    simd::FnvMixCodes(level, col->data() + begin, n, out);
  }
}

CodeHashIndex::CodeHashIndex(
    const std::vector<const std::vector<uint32_t>*>& keys, int rows) {
  uint64_t buckets = 1;
  while (buckets < static_cast<uint64_t>(rows)) buckets <<= 1;
  mask_ = buckets - 1;
  hashes_.resize(rows);
  starts_.assign(buckets + 1, 0);
  row_ids_.resize(rows);
  if (rows == 0) return;

  // Count: hash every row once (batched column-major mixing), then
  // histogram per bucket by tiling the bucket-id fold through
  // simd::FoldMask — the scatter increment itself stays scalar.
  const simd::Level level = simd::ActiveLevel();
  std::vector<uint32_t> cursor(buckets, 0);
  HashRows(keys, 0, rows, hashes_.data());
  uint32_t ids[kHashTile];
  for (int at = 0; at < rows; at += kHashTile) {
    const int len = std::min(kHashTile, rows - at);
    simd::FoldMask(level, hashes_.data() + at, len, mask_, ids);
    for (int i = 0; i < len; ++i) ++cursor[ids[i]];
  }

  // Exclusive prefix sum: bucket b's rows start where bucket b−1's end.
  uint32_t total = 0;
  for (uint64_t b = 0; b < buckets; ++b) {
    starts_[b] = total;
    const uint32_t count = cursor[b];
    cursor[b] = total;
    total += count;
  }
  starts_[buckets] = total;

  // Fill: scatter row ids through the cursors in ascending row order,
  // re-deriving bucket ids tile-wise from the cached hashes.
  for (int at = 0; at < rows; at += kHashTile) {
    const int len = std::min(kHashTile, rows - at);
    simd::FoldMask(level, hashes_.data() + at, len, mask_, ids);
    for (int i = 0; i < len; ++i) {
      row_ids_[cursor[ids[i]]++] = at + i;
    }
  }
}

}  // namespace sqlnf
