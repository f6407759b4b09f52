// CodeHashIndex: a flat CSR-layout hash index over code-column keys —
// the build side of the equality join and the grouping structure
// behind distinct-row emission and the batch validators.
//
// Instead of an unordered_map<hash, vector<row>> (one heap allocation
// per bucket, pointer-chasing probes), the index is three contiguous
// arrays:
//
//   hashes_[row]       FNV-1a over the row's key codes
//   starts_[b .. b+1]  the CSR window of bucket b in row_ids_
//   row_ids_[...]      row ids, grouped by bucket, ASCENDING per bucket
//
// The bucket array is a power of two sized to hold the rows at load
// factor <= 1, and the build is the two-phase count -> exclusive prefix
// sum -> fill pass: the count pass histograms the rows per bucket, the
// prefix sum fixes each bucket's write cursor, and the fill pass
// scatters row ids in ascending row order, so every bucket lists its
// rows in ascending order — which is what fixes the join's right-row
// order and the validators' witness.
//
// Hash collisions are NOT resolved here: a bucket may mix genuinely
// different keys, and callers confirm equality on the key codes (the
// same contract the previous unordered_map index had).

#ifndef SQLNF_CORE_CODE_HASH_INDEX_H_
#define SQLNF_CORE_CODE_HASH_INDEX_H_

#include <cstdint>
#include <vector>

namespace sqlnf {

class CodeHashIndex {
 public:
  /// Indexes `rows` rows keyed on the listed code columns (each of size
  /// `rows`; the list may be empty, giving one all-rows bucket).
  CodeHashIndex(const std::vector<const std::vector<uint32_t>*>& keys,
                int rows);

  /// FNV-1a over one row's codes in the key columns — the exact mix
  /// probe sides must use.
  static uint64_t HashKey(
      const std::vector<const std::vector<uint32_t>*>& keys, int row);

  /// Batch form of HashKey over rows [begin, end): out[i] receives the
  /// hash of row begin+i. Mixes column-major through the SIMD kernels
  /// (simd::FnvMixCodes) — the per-row mix order is identical to
  /// HashKey, so the results are bit-equal. Probe sides tile their
  /// rows through this instead of hashing row-at-a-time.
  static void HashRows(const std::vector<const std::vector<uint32_t>*>& keys,
                       int begin, int end, uint64_t* out);

  /// The build-side hash of an indexed row (cached from the build).
  uint64_t row_hash(int row) const { return hashes_[row]; }

  int num_buckets() const { return static_cast<int>(mask_ + 1); }

  /// The rows whose key hashed into `hash`'s bucket, ascending. May
  /// contain rows with different keys (collisions) — confirm on codes.
  struct Range {
    const int* begin;
    const int* end;
  };
  Range Bucket(uint64_t hash) const {
    const uint64_t b = Fold(hash) & mask_;
    return {row_ids_.data() + starts_[b], row_ids_.data() + starts_[b + 1]};
  }

 private:
  /// Folds the high half into the low bits so the power-of-two mask
  /// sees the whole 64-bit mix.
  static uint64_t Fold(uint64_t h) { return h ^ (h >> 32); }

  uint64_t mask_ = 0;
  std::vector<uint64_t> hashes_;   // per row
  std::vector<uint32_t> starts_;   // per bucket, CSR offsets (+1 slot)
  std::vector<int> row_ids_;       // all rows, bucket-grouped
};

}  // namespace sqlnf

#endif  // SQLNF_CORE_CODE_HASH_INDEX_H_
