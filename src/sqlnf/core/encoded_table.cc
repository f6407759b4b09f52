#include "sqlnf/core/encoded_table.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>

#include "sqlnf/core/code_hash_index.h"
#include "sqlnf/util/row_shift.h"

namespace sqlnf {

namespace {

// Blocks of EncodedTable::kZoneRows rows covering `rows` rows.
size_t ZoneBlocks(size_t rows) {
  return (rows + EncodedTable::kZoneRows - 1) / EncodedTable::kZoneRows;
}

// The least and greatest code of block `b` (which must be non-empty).
// A plain indexed loop, which the compiler vectorizes; minmax_element's
// pairwise compares do not vectorize and cost about twice as much.
std::pair<uint32_t, uint32_t> BlockBounds(const std::vector<uint32_t>& codes,
                                          size_t b) {
  const size_t begin = b * EncodedTable::kZoneRows;
  const size_t end =
      std::min(codes.size(), begin + EncodedTable::kZoneRows);
  uint32_t lo = codes[begin];
  uint32_t hi = codes[begin];
  for (size_t i = begin + 1; i < end; ++i) {
    lo = std::min(lo, codes[i]);
    hi = std::max(hi, codes[i]);
  }
  return {lo, hi};
}

}  // namespace

EncodedTable::EncodedTable(const Table& table)
    : EncodedTable(table, AttributeSet::FullSet(table.num_columns())) {}

EncodedTable::EncodedTable(const Table& table, const AttributeSet& columns)
    : num_rows_(table.num_rows()), encoded_(columns) {
  columns_.reserve(table.num_columns());
  for (int col = 0; col < table.num_columns(); ++col) {
    columns_.push_back(std::make_shared<Column>());
  }
  for (AttributeId col : encoded_) {
    Column& c = *columns_[col];
    c.codes.resize(num_rows_);
    for (int row = 0; row < num_rows_; ++row) {
      c.codes[row] = EncodeUnordered(&c, table.row(row)[col]);
    }
    RebuildOrder(c.dict.get());  // one O(d log d) sort beats d insertions
    RebuildZones(&c, 0);
  }
}

EncodedTable::EncodedTable(int num_columns)
    : encoded_(AttributeSet::FullSet(num_columns)) {
  columns_.reserve(num_columns);
  for (int col = 0; col < num_columns; ++col) {
    columns_.push_back(std::make_shared<Column>());
  }
}

EncodedTable::Column& EncodedTable::Detach(AttributeId col) {
  std::shared_ptr<Column>& p = columns_[col];
  // use_count > 1 means a snapshot (or sibling copy) still references
  // this version; clone before writing so that reader stays bit-stable.
  // Only the single writer thread ever detaches, and snapshot refcount
  // drops can at worst leave a stale >1 reading (a harmless extra
  // clone), never a stale ==1.
  if (p.use_count() > 1) p = std::make_shared<Column>(*p);
  return *p;
}

EncodedTable::Dictionary& EncodedTable::MutableDictionary(Column* col) {
  // Same argument as Detach, one level down: every dictionary a reader
  // can reach is referenced by a snapshot column (and by whatever the
  // reader gathered or joined from it), so a count of 1 is never stale.
  if (col->dict.use_count() > 1) {
    col->dict = std::make_shared<Dictionary>(*col->dict);
  }
  return *col->dict;
}

void EncodedTable::RebuildZones(Column* col, size_t from_block) {
  const size_t blocks = ZoneBlocks(col->codes.size());
  col->zones.resize(2 * blocks);
  for (size_t b = from_block; b < blocks; ++b) {
    std::tie(col->zones[2 * b], col->zones[2 * b + 1]) =
        BlockBounds(col->codes, b);
  }
}

uint32_t EncodedTable::Encode(Column* col, const Value& value) {
  const size_t before = col->dict->values.size();
  const uint32_t code = EncodeUnordered(col, value);
  if (col->dict->values.size() != before) {
    InsertOrdered(col->dict.get(), code);
  }
  return code;
}

uint32_t EncodedTable::EncodeUnordered(Column* col, const Value& value) {
  if (value.is_null()) {
    ++col->null_count;
    return kNullCode;
  }
  const auto it = col->dict->index.find(value);
  if (it != col->dict->index.end()) return it->second;
  Dictionary& d = MutableDictionary(col);
  const uint32_t code = static_cast<uint32_t>(d.values.size());
  d.index.emplace(value, code);
  d.values.push_back(value);
  return code;
}

void EncodedTable::InsertOrdered(Dictionary* dict, uint32_t code) {
  const Value& v = dict->values[code];
  const auto it = std::lower_bound(
      dict->sorted.begin(), dict->sorted.end(), v,
      [dict](uint32_t c, const Value& x) { return dict->values[c] < x; });
  const size_t at = static_cast<size_t>(it - dict->sorted.begin());
  dict->sorted.insert(it, code);
  // The rank array grows by one slot; the sentinel moves up to stay at
  // index values.size(), and every code displaced by the insertion
  // shifts one rank. Values arriving in ascending order (at == code)
  // touch only the new tail slot.
  dict->rank.push_back(kNoRank);
  for (size_t r = at; r < dict->sorted.size(); ++r) {
    dict->rank[dict->sorted[r]] = static_cast<uint32_t>(r);
  }
  dict->rank[dict->values.size()] = kNoRank;
  dict->ordered = dict->ordered && at == code;
}

void EncodedTable::RebuildOrder(Dictionary* dict) {
  const size_t d = dict->values.size();
  dict->sorted.resize(d);
  std::iota(dict->sorted.begin(), dict->sorted.end(), 0u);
  std::sort(dict->sorted.begin(), dict->sorted.end(),
            [dict](uint32_t a, uint32_t b) {
              return dict->values[a] < dict->values[b];
            });
  dict->rank.assign(d + 1, kNoRank);
  dict->ordered = true;
  for (size_t r = 0; r < d; ++r) {
    dict->rank[dict->sorted[r]] = static_cast<uint32_t>(r);
    dict->ordered = dict->ordered && dict->sorted[r] == r;
  }
}

uint32_t EncodedTable::LookupCode(AttributeId col, const Value& value) const {
  if (value.is_null()) return kNullCode;
  const Dictionary& d = *columns_[col]->dict;
  auto it = d.index.find(value);
  return it == d.index.end() ? kMissingCode : it->second;
}

uint32_t EncodedTable::LowerBoundRank(AttributeId col, const Value& v) const {
  const Dictionary& d = *columns_[col]->dict;
  const auto it = std::lower_bound(
      d.sorted.begin(), d.sorted.end(), v,
      [&d](uint32_t code, const Value& x) { return d.values[code] < x; });
  return static_cast<uint32_t>(it - d.sorted.begin());
}

uint32_t EncodedTable::UpperBoundRank(AttributeId col, const Value& v) const {
  const Dictionary& d = *columns_[col]->dict;
  const auto it = std::upper_bound(
      d.sorted.begin(), d.sorted.end(), v,
      [&d](const Value& x, uint32_t code) { return x < d.values[code]; });
  return static_cast<uint32_t>(it - d.sorted.begin());
}

std::vector<int> EncodedTable::CompactDictionaries() {
  std::vector<int> retired(columns_.size(), 0);
  for (AttributeId col : encoded_) {
    const Column& before = *columns_[col];
    const Dictionary& dict = *before.dict;
    const size_t d = dict.values.size();
    // Liveness scan on the shared column — no detach needed yet.
    std::vector<char> live(d, 0);
    for (uint32_t code : before.codes) {
      if (code != kNullCode) live[code] = 1;
    }
    size_t live_count = 0;
    for (char l : live) live_count += static_cast<size_t>(l);
    if (live_count == d && dict.ordered) {
      // Already canonical: only zones UpdateCell left loose need work.
      for (size_t b = 0; b < ZoneBlocks(before.codes.size()); ++b) {
        if (BlockBounds(before.codes, b) !=
            std::make_pair(before.zones[2 * b], before.zones[2 * b + 1])) {
          RebuildZones(&Detach(col), b);
          break;
        }
      }
      continue;
    }
    retired[col] = static_cast<int>(d - live_count);

    // Canonical target: live values in ascending value order get codes
    // 0..live_count-1, so code order IS value order (rank identity).
    // `dict.sorted` already lists codes in that order; walking it and
    // skipping dead codes yields the old→new remap directly.
    std::vector<uint32_t> remap(d, kMissingCode);
    Column next;
    Dictionary& canon = *next.dict;
    canon.values.reserve(live_count);
    canon.index.reserve(live_count);
    for (uint32_t old_code : dict.sorted) {
      if (!live[old_code]) continue;
      remap[old_code] = static_cast<uint32_t>(canon.values.size());
      canon.index.emplace(dict.values[old_code],
                          static_cast<uint32_t>(canon.values.size()));
      canon.values.push_back(dict.values[old_code]);
    }
    canon.sorted.resize(live_count);
    std::iota(canon.sorted.begin(), canon.sorted.end(), 0u);
    canon.rank.assign(live_count + 1, kNoRank);
    for (size_t r = 0; r < live_count; ++r) {
      canon.rank[r] = static_cast<uint32_t>(r);
    }
    canon.ordered = true;
    next.null_count = before.null_count;
    next.codes.resize(before.codes.size());
    for (size_t row = 0; row < before.codes.size(); ++row) {
      const uint32_t code = before.codes[row];
      next.codes[row] = code == kNullCode ? kNullCode : remap[code];
    }
    RebuildZones(&next, 0);
    // Publish the rebuilt column and dictionary as a fresh version;
    // snapshots and gathers sharing the old ones keep their
    // pre-compaction codes bit-stable.
    columns_[col] = std::make_shared<Column>(std::move(next));
  }
  return retired;
}

Status EncodedTable::CheckDictionaryOrder() const {
  for (AttributeId col : encoded_) {
    const Dictionary& c = *columns_[col]->dict;
    const size_t d = c.values.size();
    if (c.sorted.size() != d) {
      return Status::Internal("order index: sorted size != dictionary");
    }
    if (c.rank.size() != d + 1 || c.rank[d] != kNoRank) {
      return Status::Internal("order index: rank sentinel missing");
    }
    std::vector<char> seen(d, 0);
    bool identity = true;
    for (size_t r = 0; r < d; ++r) {
      const uint32_t code = c.sorted[r];
      if (code >= d || seen[code]) {
        return Status::Internal("order index: sorted not a permutation");
      }
      seen[code] = 1;
      if (c.rank[code] != r) {
        return Status::Internal("order index: rank is not sorted's inverse");
      }
      if (r > 0 && !(c.values[c.sorted[r - 1]] < c.values[code])) {
        return Status::Internal("order index: values not strictly ascending");
      }
      identity = identity && code == r;
    }
    if (c.ordered != identity) {
      return Status::Internal("order index: ordered flag stale");
    }
  }
  return Status::OK();
}

Status EncodedTable::CheckZones() const {
  for (AttributeId col : encoded_) {
    const Column& c = *columns_[col];
    const size_t blocks = ZoneBlocks(c.codes.size());
    if (c.zones.size() != 2 * blocks) {
      return Status::Internal("column " + std::to_string(col) +
                              " zone count != block count");
    }
    for (size_t b = 0; b < blocks; ++b) {
      const auto [lo, hi] = BlockBounds(c.codes, b);
      if (lo < c.zones[2 * b] || hi > c.zones[2 * b + 1]) {
        return Status::Internal("column " + std::to_string(col) +
                                " stores a code outside the zone of block " +
                                std::to_string(b));
      }
    }
  }
  return Status::OK();
}

const Value& EncodedTable::DecodeCode(AttributeId col, uint32_t code) const {
  static const Value kNull = Value::Null();
  if (code == kNullCode) return kNull;
  return columns_[col]->dict->values[code];
}

AttributeSet EncodedTable::NullFreeColumns() const {
  AttributeSet out;
  for (AttributeId col : encoded_) {
    if (columns_[col]->null_count == 0) out.Add(col);
  }
  return out;
}

std::vector<int> EncodedTable::DictionarySizes() const {
  std::vector<int> sizes;
  DictionarySizes(&sizes);
  return sizes;
}

void EncodedTable::DictionarySizes(std::vector<int>* sizes) const {
  sizes->assign(columns_.size(), 0);
  for (AttributeId col : encoded_) (*sizes)[col] = dictionary_size(col);
}

void EncodedTable::TrimDictionaries(const std::vector<int>& sizes) {
  assert(sizes.size() == columns_.size());
  for (AttributeId col : encoded_) {
    if (dictionary_size(col) <= sizes[col]) continue;
    Dictionary& d = MutableDictionary(&Detach(col));
    while (static_cast<int>(d.values.size()) > sizes[col]) {
      d.index.erase(d.values.back());
      d.values.pop_back();
    }
    RebuildOrder(&d);
  }
}

void EncodedTable::AppendRow(const Tuple& row) {
  assert(row.size() == num_columns());
  for (AttributeId col : encoded_) {
    Column& c = Detach(col);
    const uint32_t code = Encode(&c, row[col]);
    if (c.codes.size() % kZoneRows == 0) {
      c.zones.insert(c.zones.end(), {code, code});  // opens a block
    } else {
      uint32_t* zone = &c.zones[c.zones.size() - 2];
      zone[0] = std::min(zone[0], code);
      zone[1] = std::max(zone[1], code);
    }
    c.codes.push_back(code);
  }
  ++num_rows_;
}

void EncodedTable::UpdateCell(int row, AttributeId col, const Value& value) {
  Column& c = Detach(col);
  if (c.codes[row] == kNullCode) --c.null_count;
  const uint32_t code = Encode(&c, value);
  c.codes[row] = code;
  // Encode counted a fresh ⊥; a non-null value leaves the count alone.
  // Widening keeps the zone valid; it goes loose if the old code was
  // the block's only one at a bound.
  uint32_t* zone = &c.zones[2 * static_cast<size_t>(row / kZoneRows)];
  zone[0] = std::min(zone[0], code);
  zone[1] = std::max(zone[1], code);
}

void EncodedTable::EraseRows(const std::vector<int>& rows) {
  if (rows.empty()) return;
  for (AttributeId col : encoded_) {
    Column& c = Detach(col);
    for (int row : rows) c.null_count -= c.codes[row] == kNullCode;
    EraseRowsAt(&c.codes, rows);
    RebuildZones(&c, static_cast<size_t>(rows.front() / kZoneRows));
  }
  num_rows_ -= static_cast<int>(rows.size());
}

void EncodedTable::UneraseRows(const std::vector<int>& rows,
                               const std::vector<Tuple>& tuples) {
  if (rows.empty()) return;
  assert(rows.size() == tuples.size());
  for (AttributeId col : encoded_) {
    Column& c = Detach(col);
    OpenRowsAt(&c.codes, rows, kNullCode);
    for (size_t k = 0; k < rows.size(); ++k) {
      c.codes[rows[k]] = Encode(&c, tuples[k][col]);
    }
    RebuildZones(&c, static_cast<size_t>(rows.front() / kZoneRows));
  }
  num_rows_ += static_cast<int>(rows.size());
}

Table EncodedTable::Decode(const TableSchema& schema) const {
  assert(schema.num_attributes() == num_columns());
  assert(encoded_ == AttributeSet::FullSet(num_columns()));
  Table out(schema);
  for (int row = 0; row < num_rows_; ++row) {
    std::vector<Value> values;
    values.reserve(num_columns());
    for (AttributeId col = 0; col < num_columns(); ++col) {
      values.push_back(DecodeCode(col, columns_[col]->codes[row]));
    }
    Status st = out.AddRow(Tuple(std::move(values)));
    assert(st.ok());
    (void)st;
  }
  return out;
}

EncodedTable EncodedTable::GatherRows(const std::vector<int>& rows) const {
  // Unencoded columns stay shared (they hold no rows); each encoded one
  // is replaced by a fresh code vector over the source's dictionary.
  EncodedTable out(*this);
  out.num_rows_ = static_cast<int>(rows.size());
  for (AttributeId col : encoded_) {
    const Column& src = *columns_[col];
    auto dst = std::make_shared<Column>(src.dict);
    dst->codes.resize(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      const uint32_t code = src.codes[rows[i]];
      if (code == kNullCode) ++dst->null_count;
      dst->codes[i] = code;
    }
    RebuildZones(dst.get(), 0);
    out.columns_[col] = std::move(dst);
  }
  return out;
}

EncodedTable EncodedTable::GatherColumns(
    const std::vector<AttributeId>& cols) const {
  EncodedTable out(0);
  out.encoded_ = AttributeSet::FullSet(static_cast<int>(cols.size()));
  out.num_rows_ = num_rows_;
  out.columns_.reserve(cols.size());
  for (AttributeId col : cols) {
    assert(encoded_.Contains(col));
    out.columns_.push_back(columns_[col]);  // shared copy-on-write
  }
  return out;
}

EncodedTable EncodedTable::AllocateTarget(
    const std::vector<std::pair<const EncodedTable*, AttributeId>>& sources,
    int num_rows) {
  EncodedTable out(0);
  out.encoded_ = AttributeSet::FullSet(static_cast<int>(sources.size()));
  out.num_rows_ = num_rows;
  out.columns_.reserve(sources.size());
  for (const auto& [src, col] : sources) {
    assert(src->encoded_.Contains(col));
    auto dst = std::make_shared<Column>(src->columns_[col]->dict);
    dst->codes.resize(num_rows);
    out.columns_.push_back(std::move(dst));
  }
  return out;
}

void EncodedTable::RecountNulls() {
  for (AttributeId col : encoded_) {
    Column& c = Detach(col);
    int nulls = 0;
    for (uint32_t code : c.codes) {
      if (code == kNullCode) ++nulls;
    }
    c.null_count = nulls;
    RebuildZones(&c, 0);
  }
}

std::vector<int> EncodedTable::DistinctRows() const {
  std::vector<const std::vector<uint32_t>*> cols;
  cols.reserve(encoded_.size());
  for (AttributeId col : encoded_) cols.push_back(&columns_[col]->codes);

  // CSR hash index over all row codes; a row is a first occurrence iff
  // the bucket walk (ascending) reaches the row itself before any equal
  // row. Duplicates stop at their group's first row, so the walk is
  // O(1) for them; only hash collisions scan further.
  const CodeHashIndex index(cols, num_rows_);
  auto is_first = [&](int row) {
    const CodeHashIndex::Range bucket = index.Bucket(index.row_hash(row));
    for (const int* p = bucket.begin; p != bucket.end; ++p) {
      const int prior = *p;
      if (prior == row) return true;
      bool same = true;
      for (const std::vector<uint32_t>* codes : cols) {
        if ((*codes)[row] != (*codes)[prior]) {
          same = false;
          break;
        }
      }
      if (same) return false;
    }
    return true;
  };

  std::vector<int> out;
  for (int row = 0; row < num_rows_; ++row) {
    if (is_first(row)) out.push_back(row);
  }
  return out;
}

std::vector<uint32_t> EncodedTable::TranslationTo(
    AttributeId col, const EncodedTable& other, AttributeId other_col) const {
  const Dictionary& d = *columns_[col]->dict;
  std::vector<uint32_t> map(d.values.size());
  for (size_t code = 0; code < d.values.size(); ++code) {
    map[code] = other.LookupCode(other_col, d.values[code]);
  }
  return map;
}

bool EncodedTable::EquivalentTo(const EncodedTable& other) const {
  if (num_rows_ != other.num_rows_ ||
      num_columns() != other.num_columns() || encoded_ != other.encoded_) {
    return false;
  }
  for (AttributeId col : encoded_) {
    const std::vector<uint32_t>& a = columns_[col]->codes;
    const std::vector<uint32_t>& b = other.columns_[col]->codes;
    std::unordered_map<uint32_t, uint32_t> fwd, rev;
    for (int row = 0; row < num_rows_; ++row) {
      if ((a[row] == kNullCode) != (b[row] == kNullCode)) return false;
      if (a[row] == kNullCode) continue;
      auto [fit, finserted] = fwd.emplace(a[row], b[row]);
      if (!finserted && fit->second != b[row]) return false;
      if (finserted &&
          !(DecodeCode(col, a[row]) == other.DecodeCode(col, b[row]))) {
        return false;
      }
      auto [rit, rinserted] = rev.emplace(b[row], a[row]);
      if (!rinserted && rit->second != a[row]) return false;
    }
  }
  return true;
}

bool EncodedTable::BitIdentical(const EncodedTable& other) const {
  if (num_rows_ != other.num_rows_ ||
      num_columns() != other.num_columns() || encoded_ != other.encoded_) {
    return false;
  }
  for (AttributeId col : encoded_) {
    const Column& a = *columns_[col];
    const Column& b = *other.columns_[col];
    if (a.codes != b.codes || a.null_count != b.null_count) return false;
    if (a.dict == b.dict) continue;
    const std::vector<Value>& av = a.dict->values;
    const std::vector<Value>& bv = b.dict->values;
    if (av.size() != bv.size()) return false;
    for (size_t code = 0; code < av.size(); ++code) {
      if (!(av[code] == bv[code])) return false;
    }
  }
  return true;
}

}  // namespace sqlnf
