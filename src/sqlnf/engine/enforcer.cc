#include "sqlnf/engine/enforcer.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <string>

#include "sqlnf/util/fnv.h"
#include "sqlnf/util/row_shift.h"

namespace sqlnf {

namespace {

// Renumbers the stored ids of an index after rows are erased or
// restored. Erased ids (ascending): every id drops by the erased ids
// below it. Restored positions (ascending, post-restore numbering):
// every id rises past the restored positions at or below its final
// position. Up to kFewIds listed rows run one branch-free pass each
// (`id -= id > e`, or `id += id >= e` in ascending order), which the
// compiler vectorizes; more build one remap table, indexed from kSkip
// up, so the negative markers map to themselves in the same gather.
class IdShift {
 public:
  static constexpr size_t kFewIds = 4;

  // `rows` is the listed ids; `live` the row count the stored ids
  // refer to before the shift.
  IdShift(const std::vector<int>& rows, bool restore, int live)
      : rows_(rows), restore_(restore) {
    if (rows.size() <= kFewIds) return;
    remap_.resize(static_cast<size_t>(live) + kMarkers);
    for (int32_t marker = -kMarkers; marker < 0; ++marker) {
      remap_[marker + kMarkers] = marker;
    }
    size_t k = 0;
    int32_t to = 0;
    for (int32_t id = 0; id < live; ++id) {
      if (restore) {
        while (k < rows.size() && rows[k] == to) ++k, ++to;
        remap_[id + kMarkers] = to++;
      } else {
        while (k < rows.size() && rows[k] < id) ++k;
        remap_[id + kMarkers] = id - static_cast<int32_t>(k);
      }
    }
  }

  void Apply(std::vector<int32_t>* ids) const {
    int32_t* p = ids->data();
    const size_t n = ids->size();
    if (!remap_.empty()) {
      const int32_t* remap = remap_.data() + kMarkers;
      for (size_t i = 0; i < n; ++i) p[i] = remap[p[i]];
    } else if (restore_) {
      for (const int e : rows_) {
        for (size_t i = 0; i < n; ++i) p[i] += p[i] >= e;
      }
    } else {
      for (auto it = rows_.rbegin(); it != rows_.rend(); ++it) {
        const int e = *it;
        for (size_t i = 0; i < n; ++i) p[i] -= p[i] > e;
      }
    }
  }

 private:
  static constexpr int32_t kMarkers = 2;  // kSkip (-2) and kEnd (-1)
  const std::vector<int>& rows_;
  bool restore_;
  std::vector<int32_t> remap_;
};

}  // namespace

size_t IncrementalEnforcer::Chains::Home(uint64_t hash) const {
  // Fibonacci hashing: the top bits of hash · φ depend on every bit of
  // the hash, so codes differing only in high bits still spread.
  return static_cast<size_t>((hash * 0x9E3779B97F4A7C15ull) >> shift);
}

int IncrementalEnforcer::Chains::Find(uint64_t hash) const {
  if (heads.empty()) return -1;
  const size_t mask = heads.size() - 1;
  for (size_t s = Home(hash);; s = (s + 1) & mask) {
    if (heads[s] == kEnd) return -1;
    if (keys[s] == hash) return static_cast<int>(s);
  }
}

void IncrementalEnforcer::Chains::Append(uint64_t hash, int32_t row) {
  next[row] = kEnd;
  const int found = Find(hash);
  if (found >= 0) {
    next[tails[found]] = row;
    tails[found] = row;
    return;
  }
  if (2 * static_cast<size_t>(used + 1) > heads.size()) Grow();
  const size_t mask = heads.size() - 1;
  size_t s = Home(hash);
  while (heads[s] != kEnd) s = (s + 1) & mask;
  keys[s] = hash;
  heads[s] = tails[s] = row;
  ++used;
}

void IncrementalEnforcer::Chains::Unlink(uint64_t hash, int32_t row) {
  const int s = Find(hash);
  assert(s >= 0);
  int32_t prev = kEnd;
  for (int32_t at = heads[s]; at != row; at = next[at]) prev = at;
  (prev == kEnd ? heads[s] : next[prev]) = next[row];
  if (tails[s] == row) tails[s] = prev;
  next[row] = kSkip;
  if (heads[s] == kEnd) EraseSlot(static_cast<size_t>(s));
}

void IncrementalEnforcer::Chains::EraseSlot(size_t slot) {
  // Backward shift: walk the probe run after the hole and move back
  // every entry whose home does not lie cyclically in (hole, entry], so
  // each stays reachable from its home without tombstones.
  const size_t mask = heads.size() - 1;
  size_t hole = slot;
  for (size_t s = (slot + 1) & mask; heads[s] != kEnd; s = (s + 1) & mask) {
    if (((s - Home(keys[s])) & mask) >= ((s - hole) & mask)) {
      keys[hole] = keys[s];
      heads[hole] = heads[s];
      tails[hole] = tails[s];
      hole = s;
    }
  }
  heads[hole] = tails[hole] = kEnd;
  --used;
}

void IncrementalEnforcer::Chains::Grow() {
  const size_t cap = heads.empty() ? 16 : 2 * heads.size();
  std::vector<uint64_t> old_keys = std::move(keys);
  std::vector<int32_t> old_heads = std::move(heads);
  std::vector<int32_t> old_tails = std::move(tails);
  keys.assign(cap, 0);
  heads.assign(cap, kEnd);
  tails.assign(cap, kEnd);
  shift = 64 - std::countr_zero(cap);
  const size_t mask = cap - 1;
  for (size_t old = 0; old < old_heads.size(); ++old) {
    if (old_heads[old] == kEnd) continue;
    size_t s = Home(old_keys[old]);
    while (heads[s] != kEnd) s = (s + 1) & mask;
    keys[s] = old_keys[old];
    heads[s] = old_heads[old];
    tails[s] = old_tails[old];
  }
}

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
    const Chains& chains = index.chains;
    const int slot = chains.Find(HashCodes(cand, index.stable));
    if (slot < 0) continue;
    const AttributeSet rest =
        index.similarity_attrs.Difference(index.stable);
    for (int32_t other_id = chains.heads[slot]; other_id != kEnd;
         other_id = chains.next[other_id]) {
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
    std::vector<int32_t>& next = index.chains.next;
    if (static_cast<size_t>(row_id) >= next.size()) {
      next.resize(static_cast<size_t>(row_id) + 1, kSkip);
    }
    if (!ShouldIndex(index, row_id)) continue;
    index.chains.Append(HashStoredRow(row_id, index.stable), row_id);
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
    if (index.chains.next[row_id] == kSkip) continue;  // never indexed
    index.chains.Unlink(HashStoredRow(row_id, index.stable), row_id);
  }
}

void IncrementalEnforcer::CompactAfterErase(const std::vector<int>& erased) {
  if (erased.empty()) return;
  const int before = encoded_.num_rows();
  encoded_.EraseRows(erased);
  for (ConstraintIndex& index : indexes_) {
    EraseRowsAt(&index.chains.next, erased);
  }
  // When only the tail went (a rejected or rolled-back INSERT), no
  // stored id lies above an erased one: nothing to renumber.
  if (erased.front() == encoded_.num_rows()) return;
  const IdShift shift(erased, /*restore=*/false, before);
  for (ConstraintIndex& index : indexes_) {
    shift.Apply(&index.chains.next);
    shift.Apply(&index.chains.heads);
    shift.Apply(&index.chains.tails);
  }
}

void IncrementalEnforcer::Restore(const std::vector<int>& erased,
                                  const std::vector<Tuple>& rows) {
  if (erased.empty()) return;
  assert(erased.size() == rows.size());
  // Restored rows at the tail shift no survivor.
  if (erased.front() != encoded_.num_rows()) {
    const IdShift shift(erased, /*restore=*/true, encoded_.num_rows());
    for (ConstraintIndex& index : indexes_) {
      shift.Apply(&index.chains.next);
      shift.Apply(&index.chains.heads);
      shift.Apply(&index.chains.tails);
    }
  }
  for (ConstraintIndex& index : indexes_) {
    OpenRowsAt(&index.chains.next, erased, kSkip);
  }
  encoded_.UneraseRows(erased, rows);
  for (int id : erased) IndexRow(id);
}

int IncrementalEnforcer::CompactDictionaries() {
  const std::vector<int> retired = encoded_.CompactDictionaries();
  // Codes may change even when nothing was retired (an unordered
  // dictionary still canonicalizes), so the code-keyed chains are
  // rebuilt from the new codes unconditionally, rows in ascending
  // order. Chain contents are a pure function of the (deterministic)
  // new codes, so two enforcers with equal decoded contents
  // fingerprint identically afterwards.
  for (ConstraintIndex& index : indexes_) index.chains = Chains{};
  for (int id = 0; id < encoded_.num_rows(); ++id) IndexRow(id);
  int total = 0;
  for (int r : retired) total += r;
  return total;
}

std::optional<std::vector<int>> IncrementalEnforcer::SelectPinned(
    const Predicate& where) const {
  if (where.disjuncts.size() != 1) return std::nullopt;
  const Conjunction& conj = where.disjuncts.front();
  auto pinned_value = [&](AttributeId col) -> const Value* {
    for (const PredicateAtom& atom : conj) {
      if (atom.column == col && atom.op == CompareOp::kEq &&
          !atom.value.is_null()) {
        return &atom.value;
      }
    }
    return nullptr;
  };
  std::vector<uint32_t> codes(encoded_.num_columns());
  for (const ConstraintIndex& index : indexes_) {
    if (index.stable.empty()) continue;
    bool pinned = true;
    bool absent = false;
    for (AttributeId a : index.stable) {
      const Value* value = pinned_value(a);
      if (value == nullptr) {
        pinned = false;
        break;
      }
      codes[a] = encoded_.LookupCode(a, *value);
      absent = absent || codes[a] == EncodedTable::kMissingCode;
    }
    if (!pinned) continue;
    std::vector<int> rows;
    const Chains& chains = index.chains;
    const int slot = absent ? -1 : chains.Find(HashCodes(codes, index.stable));
    if (slot < 0) return rows;
    // The chain holds every row the atoms on the stable columns allow
    // (hash collisions included); the whole WHERE decides.
    const CompiledPredicate compiled(encoded_, where);
    for (int32_t row = chains.heads[slot]; row != kEnd;
         row = chains.next[row]) {
      uint8_t match = 0;
      compiled.EvalBlock(row, 1, &match);
      if (match) rows.push_back(row);
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }
  return std::nullopt;
}

Status IncrementalEnforcer::CheckInvariants() const {
  const int n = encoded_.num_rows();
  // Order index first: sorted/rank/ordered must stay consistent with
  // the dictionaries across every write and compaction.
  SQLNF_RETURN_NOT_OK(encoded_.CheckDictionaryOrder());
  // Zones: one per block, every stored code inside its block's zone.
  SQLNF_RETURN_NOT_OK(encoded_.CheckZones());
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
  // Indexes: chain integrity, and every row present exactly where it
  // must be, hashed from its current codes.
  for (size_t i = 0; i < indexes_.size(); ++i) {
    const ConstraintIndex& index = indexes_[i];
    const Chains& chains = index.chains;
    auto breach = [&](const std::string& what) {
      return Status::Internal("index " + std::to_string(i) + " " + what);
    };
    if (chains.next.size() != static_cast<size_t>(n)) {
      return breach("chain links out of sync with row count");
    }
    const size_t cap = chains.heads.size();
    if (chains.keys.size() != cap || chains.tails.size() != cap ||
        (cap != 0 && (!std::has_single_bit(cap) ||
                      chains.shift != 64 - std::countr_zero(cap))) ||
        2 * static_cast<size_t>(chains.used) > cap) {
      return breach("head table malformed");
    }
    std::vector<char> seen(n, 0);
    int used = 0;
    for (size_t slot = 0; slot < cap; ++slot) {
      const int32_t head = chains.heads[slot];
      if (head == kEnd) continue;
      ++used;
      const uint64_t hash = chains.keys[slot];
      // Reachable along its probe sequence: no hole and no other slot of
      // the same hash between home and here.
      for (size_t s = chains.Home(hash); s != slot; s = (s + 1) & (cap - 1)) {
        if (chains.heads[s] == kEnd || chains.keys[s] == hash) {
          return breach("slot " + std::to_string(slot) +
                        " is unreachable from its home slot");
        }
      }
      int32_t last = kEnd;
      for (int32_t id = head; id != kEnd; id = chains.next[id]) {
        if (id < 0 || id >= n) {
          return breach("holds out-of-range link " + std::to_string(id));
        }
        if (seen[id]) {
          return breach("reaches row " + std::to_string(id) +
                        " twice (a cycle or a shared link)");
        }
        seen[id] = 1;
        last = id;
        if (!ShouldIndex(index, id)) {
          return breach("holds non-total row " + std::to_string(id) +
                        " of a strong constraint");
        }
        if (HashStoredRow(id, index.stable) != hash) {
          return breach("files row " + std::to_string(id) +
                        " under a stale hash");
        }
      }
      if (chains.tails[slot] != last) {
        return breach("slot " + std::to_string(slot) +
                      " has a stale tail");
      }
    }
    if (used != chains.used) return breach("miscounts its occupied slots");
    for (int id = 0; id < n; ++id) {
      if (ShouldIndex(index, id) && !seen[id]) {
        return breach("is missing row " + std::to_string(id));
      }
      if (!seen[id] && chains.next[id] != kSkip) {
        return breach("links row " + std::to_string(id) +
                      ", which no chain reaches");
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
    // Per-chain digests combined commutatively: slot order and chain
    // order are implementation noise, the (hash → id set) mapping is
    // the state.
    const Chains& chains = index.chains;
    uint64_t acc = 0;
    std::vector<int> ids;
    for (size_t slot = 0; slot < chains.heads.size(); ++slot) {
      if (chains.heads[slot] == kEnd) continue;
      ids.clear();
      for (int32_t id = chains.heads[slot]; id != kEnd;
           id = chains.next[id]) {
        ids.push_back(id);
      }
      std::sort(ids.begin(), ids.end());
      uint64_t h = FnvMix(kFnv64OffsetBasis, chains.keys[slot]);
      for (int id : ids) h = FnvMix(h, static_cast<uint64_t>(id));
      acc += h;
    }
    fp = FnvMix(fp, acc);
  }
  return fp;
}

IncrementalEnforcer::IndexStats IncrementalEnforcer::Stats(int index) const {
  const Chains& chains = indexes_[index].chains;
  IndexStats stats;
  for (size_t slot = 0; slot < chains.heads.size(); ++slot) {
    if (chains.heads[slot] == kEnd) continue;
    int length = 0;
    for (int32_t id = chains.heads[slot]; id != kEnd; id = chains.next[id]) {
      ++length;
    }
    ++stats.buckets;
    stats.indexed_rows += length;
    stats.largest_bucket = std::max(stats.largest_bucket, length);
  }
  return stats;
}

}  // namespace sqlnf
