#include "sqlnf/engine/enforcer.h"

#include <algorithm>
#include <cassert>

#include "sqlnf/util/fnv.h"

namespace sqlnf {

IncrementalEnforcer::IncrementalEnforcer(const TableSchema& schema,
                                         const ConstraintSet& sigma)
    : schema_(schema), encoded_(schema.num_attributes()) {
  // Stable (hash) attributes per constraint: a weak (certain)
  // constraint can relate rows through ⊥, so only schema-level NOT NULL
  // attributes pin a bucket; strong similarity requires exact total
  // equality on every attribute, so strong constraints hash the full
  // similarity set and skip non-total rows entirely.
  for (const auto& fd : sigma.fds()) {
    ConstraintIndex index;
    index.constraint = fd;
    index.similarity_attrs = fd.lhs;
    index.rhs = fd.rhs;
    index.strong = fd.is_possible();
    index.stable =
        index.strong ? fd.lhs : fd.lhs.Intersect(schema.nfs());
    indexes_.push_back(std::move(index));
  }
  for (const auto& key : sigma.keys()) {
    ConstraintIndex index;
    index.constraint = key;
    index.similarity_attrs = key.attrs;
    index.strong = key.is_possible();
    index.stable =
        index.strong ? key.attrs : key.attrs.Intersect(schema.nfs());
    indexes_.push_back(std::move(index));
  }
}

uint64_t IncrementalEnforcer::HashCodes(const std::vector<uint32_t>& codes,
                                        const AttributeSet& attrs) {
  uint64_t h = kFnv64OffsetBasis;
  for (AttributeId a : attrs) h = FnvMix(h, codes[a]);
  return h;
}

uint64_t IncrementalEnforcer::HashStoredRow(int row_id,
                                            const AttributeSet& attrs) const {
  uint64_t h = kFnv64OffsetBasis;
  for (AttributeId a : attrs) h = FnvMix(h, encoded_.code(a, row_id));
  return h;
}

bool IncrementalEnforcer::RowTotal(int row_id,
                                   const AttributeSet& attrs) const {
  for (AttributeId a : attrs) {
    if (encoded_.code(a, row_id) == EncodedTable::kNullCode) return false;
  }
  return true;
}

bool IncrementalEnforcer::ShouldIndex(const ConstraintIndex& index,
                                      int row_id) const {
  // Rows not total on the similarity attrs can still conflict under
  // weak similarity, but never under strong similarity — skip them
  // for possible constraints to keep buckets tight.
  return !index.strong || RowTotal(row_id, index.similarity_attrs);
}

std::optional<Violation> IncrementalEnforcer::Check(const Tuple& row,
                                                   int row_id) const {
  for (AttributeId a : schema_.nfs()) {
    if (row[a].is_null()) {
      Violation v;
      v.row1 = v.row2 = row_id;
      v.attribute = a;
      return v;
    }
  }
  // Probe the dictionaries once; a value the encoding has never seen
  // maps to kMissingCode, which equals no stored code — such a cell can
  // only conflict through ⊥, exactly like the value semantics.
  std::vector<uint32_t> cand(encoded_.num_columns());
  for (AttributeId a = 0; a < encoded_.num_columns(); ++a) {
    cand[a] = encoded_.LookupCode(a, row[a]);
  }
  for (const ConstraintIndex& index : indexes_) {
    if (index.strong) {
      // Strong similarity needs the candidate total on the similarity
      // attrs; a ⊥ (or never-seen) cell there matches no stored row.
      bool can_conflict = true;
      for (AttributeId a : index.similarity_attrs) {
        if (cand[a] == EncodedTable::kNullCode ||
            cand[a] == EncodedTable::kMissingCode) {
          can_conflict = false;
          break;
        }
      }
      if (!can_conflict) continue;
    }
    auto bucket = index.buckets.find(HashCodes(cand, index.stable));
    if (bucket == index.buckets.end()) continue;
    const AttributeSet rest =
        index.similarity_attrs.Difference(index.stable);
    for (int other_id : bucket->second) {
      // Hash collisions: confirm exact code match on the stable columns.
      bool stable_equal = true;
      for (AttributeId a : index.stable) {
        if (cand[a] != encoded_.code(a, other_id)) {
          stable_equal = false;
          break;
        }
      }
      if (!stable_equal) continue;
      bool similar = true;
      for (AttributeId a : rest) {
        const uint32_t other = encoded_.code(a, other_id);
        if (index.strong ? !CodesStronglySimilar(cand[a], other)
                         : !CodesWeaklySimilar(cand[a], other)) {
          similar = false;
          break;
        }
      }
      if (!similar) continue;
      bool rhs_equal = true;
      for (AttributeId a : index.rhs) {
        if (cand[a] != encoded_.code(a, other_id)) {
          rhs_equal = false;
          break;
        }
      }
      if (index.rhs.empty() || !rhs_equal) {
        return Violation{other_id, row_id, index.constraint, std::nullopt};
      }
    }
  }
  return std::nullopt;
}

void IncrementalEnforcer::IndexRow(int row_id) {
  for (ConstraintIndex& index : indexes_) {
    if (!ShouldIndex(index, row_id)) continue;
    index.buckets[HashStoredRow(row_id, index.stable)].push_back(row_id);
  }
}

void IncrementalEnforcer::Add(const Tuple& row, int row_id) {
  if (row_id == encoded_.num_rows()) {
    encoded_.AppendRow(row);
  } else {
    // Re-add in place (the UPDATE write path re-encodes the slot).
    assert(row_id >= 0 && row_id < encoded_.num_rows());
    for (AttributeId a = 0; a < encoded_.num_columns(); ++a) {
      encoded_.UpdateCell(row_id, a, row[a]);
    }
  }
  IndexRow(row_id);
}

void IncrementalEnforcer::Remove(int row_id) {
  // The encoding still holds the pre-image; hash from the stored codes.
  for (ConstraintIndex& index : indexes_) {
    // Mirror IndexRow(): rows skipped there were never indexed.
    if (!ShouldIndex(index, row_id)) continue;
    auto bucket = index.buckets.find(HashStoredRow(row_id, index.stable));
    if (bucket == index.buckets.end()) continue;
    auto& ids = bucket->second;
    auto it = std::find(ids.begin(), ids.end(), row_id);
    if (it == ids.end()) continue;
    ids.erase(it);
    if (ids.empty()) index.buckets.erase(bucket);
  }
}

void IncrementalEnforcer::CompactAfterErase(const std::vector<int>& erased) {
  if (erased.empty()) return;
  encoded_.EraseRows(erased);
  for (ConstraintIndex& index : indexes_) {
    for (auto& [hash, ids] : index.buckets) {
      for (int& id : ids) {
        id -= static_cast<int>(
            std::upper_bound(erased.begin(), erased.end(), id) -
            erased.begin());
      }
    }
  }
}

void IncrementalEnforcer::Restore(const std::vector<int>& erased,
                                  const std::vector<Tuple>& rows) {
  if (erased.empty()) return;
  assert(erased.size() == rows.size());
  // survivor_final[c] = the post-restore id of the row currently
  // numbered c: survivors occupy, in order, the positions NOT being
  // restored.
  const int restored =
      encoded_.num_rows() + static_cast<int>(erased.size());
  std::vector<int> survivor_final;
  survivor_final.reserve(encoded_.num_rows());
  size_t next = 0;
  for (int pos = 0; pos < restored; ++pos) {
    if (next < erased.size() && erased[next] == pos) {
      ++next;
      continue;
    }
    survivor_final.push_back(pos);
  }
  for (ConstraintIndex& index : indexes_) {
    for (auto& [hash, ids] : index.buckets) {
      for (int& id : ids) id = survivor_final[id];
    }
  }
  encoded_.UneraseRows(erased, rows);
  for (int id : erased) IndexRow(id);
}

int IncrementalEnforcer::CompactDictionaries() {
  const std::vector<int> retired = encoded_.CompactDictionaries();
  // Codes may change even when nothing was retired (an unordered
  // dictionary still canonicalizes), so the code-keyed buckets are
  // rebuilt from the new codes unconditionally. Bucket contents are a
  // pure function of the (deterministic) new codes, so two enforcers
  // with equal decoded contents fingerprint identically afterwards.
  for (ConstraintIndex& index : indexes_) index.buckets.clear();
  for (int id = 0; id < encoded_.num_rows(); ++id) IndexRow(id);
  int total = 0;
  for (int r : retired) total += r;
  return total;
}

Status IncrementalEnforcer::CheckInvariants() const {
  const int n = encoded_.num_rows();
  // Order index first: sorted/rank/ordered must stay consistent with
  // the dictionaries across every write and compaction.
  SQLNF_RETURN_NOT_OK(encoded_.CheckDictionaryOrder());
  // Encoding: code ranges, ⊥ counts, dictionary bijectivity.
  for (AttributeId col : encoded_.encoded_columns()) {
    const std::vector<uint32_t>& codes = encoded_.column(col);
    if (static_cast<int>(codes.size()) != n) {
      return Status::Internal("column " + std::to_string(col) +
                              " code vector out of sync with row count");
    }
    const uint32_t dict_size =
        static_cast<uint32_t>(encoded_.dictionary_size(col));
    int nulls = 0;
    for (uint32_t code : codes) {
      if (code == EncodedTable::kNullCode) {
        ++nulls;
        continue;
      }
      if (code >= dict_size) {
        return Status::Internal("column " + std::to_string(col) +
                                " stores a retired or unminted code");
      }
    }
    if (nulls != encoded_.null_count(col)) {
      return Status::Internal("column " + std::to_string(col) +
                              " null count drifted from its codes");
    }
    for (uint32_t code = 0; code < dict_size; ++code) {
      if (encoded_.LookupCode(col, encoded_.DecodeCode(col, code)) != code) {
        return Status::Internal("column " + std::to_string(col) +
                                " dictionary is not a bijection at code " +
                                std::to_string(code));
      }
    }
  }
  // Indexes: every row present exactly where it must be, hashed from
  // its current codes.
  for (size_t i = 0; i < indexes_.size(); ++i) {
    const ConstraintIndex& index = indexes_[i];
    std::vector<char> seen(n, 0);
    for (const auto& [hash, ids] : index.buckets) {
      if (ids.empty()) {
        return Status::Internal("index " + std::to_string(i) +
                                " retains an empty bucket");
      }
      for (int id : ids) {
        if (id < 0 || id >= n) {
          return Status::Internal("index " + std::to_string(i) +
                                  " holds out-of-range row id " +
                                  std::to_string(id));
        }
        if (seen[id]) {
          return Status::Internal("index " + std::to_string(i) +
                                  " holds row " + std::to_string(id) +
                                  " twice");
        }
        seen[id] = 1;
        if (!ShouldIndex(index, id)) {
          return Status::Internal("index " + std::to_string(i) +
                                  " holds non-total row " +
                                  std::to_string(id) +
                                  " of a strong constraint");
        }
        if (HashStoredRow(id, index.stable) != hash) {
          return Status::Internal("index " + std::to_string(i) +
                                  " files row " + std::to_string(id) +
                                  " under a stale hash");
        }
      }
    }
    for (int id = 0; id < n; ++id) {
      if (ShouldIndex(index, id) && !seen[id]) {
        return Status::Internal("index " + std::to_string(i) +
                                " is missing row " + std::to_string(id));
      }
    }
  }
  return Status::OK();
}

uint64_t IncrementalEnforcer::IndexFingerprint() const {
  uint64_t fp = kFnv64OffsetBasis;
  for (AttributeId col : encoded_.encoded_columns()) {
    fp = FnvMix(fp,
                static_cast<uint64_t>(encoded_.dictionary_size(col)));
  }
  for (const ConstraintIndex& index : indexes_) {
    // Per-bucket digests combined commutatively: bucket iteration order
    // and within-bucket insertion order are implementation noise, the
    // (key → id set) mapping is the state.
    uint64_t acc = 0;
    for (const auto& [hash, ids] : index.buckets) {
      std::vector<int> sorted = ids;
      std::sort(sorted.begin(), sorted.end());
      uint64_t h = FnvMix(kFnv64OffsetBasis, hash);
      for (int id : sorted) h = FnvMix(h, static_cast<uint64_t>(id));
      acc += h;
    }
    fp = FnvMix(fp, acc);
  }
  return fp;
}

IncrementalEnforcer::IndexStats IncrementalEnforcer::Stats(int index) const {
  IndexStats stats;
  for (const auto& [hash, ids] : indexes_[index].buckets) {
    ++stats.buckets;
    stats.indexed_rows += static_cast<int>(ids.size());
    stats.largest_bucket =
        std::max(stats.largest_bucket, static_cast<int>(ids.size()));
  }
  return stats;
}

}  // namespace sqlnf
