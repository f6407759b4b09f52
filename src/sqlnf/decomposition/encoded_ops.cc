#include "sqlnf/decomposition/encoded_ops.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <unordered_map>
#include <utility>

#include "sqlnf/core/code_hash_index.h"
#include "sqlnf/util/fnv.h"

namespace sqlnf {

namespace {

std::vector<AttributeId> ToColumnList(const AttributeSet& x) {
  std::vector<AttributeId> cols;
  cols.reserve(x.size());
  for (AttributeId a : x) cols.push_back(a);
  return cols;
}

}  // namespace

Result<EncodedRelation> ProjectMultisetEncoded(const TableSchema& schema,
                                               const EncodedTable& enc,
                                               const AttributeSet& x,
                                               const std::string& name) {
  SQLNF_ASSIGN_OR_RETURN(TableSchema out_schema, schema.Project(x, name));
  return EncodedRelation{std::move(out_schema),
                         enc.GatherColumns(ToColumnList(x))};
}

Result<EncodedRelation> ProjectSetEncoded(const TableSchema& schema,
                                          const EncodedTable& enc,
                                          const AttributeSet& x,
                                          const std::string& name) {
  SQLNF_ASSIGN_OR_RETURN(TableSchema out_schema, schema.Project(x, name));
  EncodedTable gathered = enc.GatherColumns(ToColumnList(x));
  std::vector<int> first = gathered.DistinctRows();
  return EncodedRelation{std::move(out_schema), gathered.GatherRows(first)};
}

Result<std::vector<EncodedRelation>> ProjectAllEncoded(
    const TableSchema& schema, const EncodedTable& enc,
    const Decomposition& d) {
  SQLNF_RETURN_NOT_OK(d.Validate(schema));
  std::vector<EncodedRelation> out;
  out.reserve(d.components.size());
  for (size_t i = 0; i < d.components.size(); ++i) {
    const Component& c = d.components[i];
    std::string name =
        c.name.empty() ? schema.name() + "_" + std::to_string(i) : c.name;
    if (c.multiset) {
      SQLNF_ASSIGN_OR_RETURN(EncodedRelation r,
                             ProjectMultisetEncoded(schema, enc, c.attrs,
                                                    name));
      out.push_back(std::move(r));
    } else {
      SQLNF_ASSIGN_OR_RETURN(EncodedRelation r,
                             ProjectSetEncoded(schema, enc, c.attrs, name));
      out.push_back(std::move(r));
    }
  }
  return out;
}

Result<TableSchema> NaturalJoinSchema(const TableSchema& ls,
                                      const TableSchema& rs,
                                      const std::string& name) {
  std::vector<std::string> out_names;
  std::vector<std::string> out_not_null;
  for (AttributeId l = 0; l < ls.num_attributes(); ++l) {
    out_names.push_back(ls.attribute_name(l));
    if (ls.nfs().Contains(l)) out_not_null.push_back(ls.attribute_name(l));
  }
  for (AttributeId r = 0; r < rs.num_attributes(); ++r) {
    if (ls.FindAttribute(rs.attribute_name(r)).ok()) continue;
    out_names.push_back(rs.attribute_name(r));
    if (rs.nfs().Contains(r)) out_not_null.push_back(rs.attribute_name(r));
  }
  return TableSchema::Make(name, out_names, out_not_null);
}

Result<EncodedRelation> EqualityJoinEncoded(const TableSchema& ls,
                                            const EncodedTable& left_cols,
                                            const TableSchema& rs,
                                            const EncodedTable& right_cols,
                                            const std::string& name) {
  // Column plan identical to the row-major EqualityJoin: all left
  // columns, then right-only; common columns pair up by name.
  std::vector<std::pair<AttributeId, AttributeId>> common;  // (l, r)
  std::vector<AttributeId> right_only;
  for (AttributeId r = 0; r < rs.num_attributes(); ++r) {
    auto l = ls.FindAttribute(rs.attribute_name(r));
    if (l.ok()) {
      common.emplace_back(l.value(), r);
    } else {
      right_only.push_back(r);
    }
  }
  SQLNF_ASSIGN_OR_RETURN(TableSchema out_schema,
                         NaturalJoinSchema(ls, rs, name));

  const int left_rows = left_cols.num_rows();
  const int right_rows = right_cols.num_rows();
  const int num_left_out = ls.num_attributes();

  // Output layout: every left column, then the right-only columns, each
  // sharing its source column's dictionary (copy-on-write, so no
  // dictionary is copied). AllocateTarget sizes the code vectors once
  // the row total is known; the fill loop writes codes straight into
  // them.
  std::vector<std::pair<const EncodedTable*, AttributeId>> sources;
  sources.reserve(num_left_out + right_only.size());
  for (AttributeId l = 0; l < num_left_out; ++l) {
    sources.emplace_back(&left_cols, l);
  }
  for (AttributeId r : right_only) sources.emplace_back(&right_cols, r);
  const size_t num_out = sources.size();

  std::optional<EncodedTable> out;
  std::vector<uint32_t*> dst(num_out, nullptr);
  std::vector<const uint32_t*> src(num_out, nullptr);
  for (size_t c = 0; c < num_out; ++c) {
    src[c] = sources[c].first->column(sources[c].second).data();
  }
  auto allocate_out = [&](int64_t total) -> Status {
    if (total > std::numeric_limits<int>::max()) {
      return Status::Invalid("join result exceeds 2^31 rows");
    }
    out.emplace(EncodedTable::AllocateTarget(sources,
                                             static_cast<int>(total)));
    for (size_t c = 0; c < num_out; ++c) {
      dst[c] = out->mutable_codes(static_cast<AttributeId>(c));
    }
    return Status::OK();
  };

  if (common.empty()) {
    // No shared columns: the join is the full cartesian product. The
    // hash path would send every row through a single bucket; instead
    // the output shape is known up front — left-major, right rows
    // ascending, exactly the order the degenerate hash probe emitted —
    // and each left row fills its window with sequential copies.
    SQLNF_RETURN_NOT_OK(allocate_out(static_cast<int64_t>(left_rows) *
                                     static_cast<int64_t>(right_rows)));
    for (int64_t i = 0; i < left_rows; ++i) {
      const int64_t base = i * right_rows;
      for (size_t c = 0; c < static_cast<size_t>(num_left_out); ++c) {
        // One left code replicated across the row's whole window.
        std::fill(dst[c] + base, dst[c] + base + right_rows, src[c][i]);
      }
      for (size_t c = num_left_out; c < num_out; ++c) {
        std::copy(src[c], src[c] + right_rows, dst[c] + base);
      }
    }
    out->RecountNulls();
    return EncodedRelation{std::move(out_schema), std::move(*out)};
  }

  // Carry the right side's common-column codes into the left side's code
  // space once per dictionary entry. kNullCode passes through (⊥ matches
  // only ⊥); a value the left never saw becomes kMissingCode, which
  // matches no left code — exactly the equality-join semantics. The
  // translation map is O(dictionary); the carry loop is O(rows).
  std::vector<std::vector<uint32_t>> rkey(common.size());
  for (size_t k = 0; k < common.size(); ++k) {
    const std::vector<uint32_t> map = right_cols.TranslationTo(
        common[k].second, left_cols, common[k].first);
    std::vector<uint32_t>& col = rkey[k];
    col.resize(right_rows);
    const std::vector<uint32_t>& codes =
        right_cols.column(common[k].second);
    for (int j = 0; j < right_rows; ++j) {
      col[j] = codes[j] == EncodedTable::kNullCode ? EncodedTable::kNullCode
                                                   : map[codes[j]];
    }
  }

  // CSR hash index over the carried right keys; buckets list rows
  // ascending.
  std::vector<const std::vector<uint32_t>*> right_keys;
  right_keys.reserve(common.size());
  for (const std::vector<uint32_t>& col : rkey) right_keys.push_back(&col);
  const CodeHashIndex index(right_keys, right_rows);

  std::vector<const std::vector<uint32_t>*> left_keys;
  left_keys.reserve(common.size());
  for (size_t k = 0; k < common.size(); ++k) {
    left_keys.push_back(&left_cols.column(common[k].first));
  }

  // The probe both loops share: body(i, j) for every matching pair in
  // output order — left-major, and within left row i its matches in
  // bucket (= ascending right-row) order. Left rows are hashed a tile
  // at a time through CodeHashIndex::HashRows (SIMD FNV mixing)
  // instead of re-walking the key columns row by row.
  constexpr int kProbeTile = 512;
  auto for_each_match = [&](auto&& body) {
    uint64_t hashes[kProbeTile];
    for (int at = 0; at < left_rows; at += kProbeTile) {
      const int len = std::min(kProbeTile, left_rows - at);
      CodeHashIndex::HashRows(left_keys, at, at + len, hashes);
      for (int t = 0; t < len; ++t) {
        const int i = at + t;
        const CodeHashIndex::Range bucket = index.Bucket(hashes[t]);
        for (const int* p = bucket.begin; p != bucket.end; ++p) {
          const int j = *p;
          bool match = true;
          for (size_t k = 0; k < common.size(); ++k) {
            if ((*left_keys[k])[i] != rkey[k][j]) {
              match = false;
              break;
            }
          }
          if (match) body(i, j);
        }
      }
    }
  };

  // Count, then fill. The count loop lets the 2^31-row bound fail
  // before anything is allocated; collecting match pairs in one pass
  // instead would grow them without bound on a hot key first.
  int64_t total = 0;
  for_each_match([&](int, int) { ++total; });
  SQLNF_RETURN_NOT_OK(allocate_out(total));
  int64_t offset = 0;
  for_each_match([&](int i, int j) {
    for (size_t c = 0; c < static_cast<size_t>(num_left_out); ++c) {
      dst[c][offset] = src[c][i];
    }
    for (size_t c = num_left_out; c < num_out; ++c) {
      dst[c][offset] = src[c][j];
    }
    ++offset;
  });
  out->RecountNulls();
  return EncodedRelation{std::move(out_schema), std::move(*out)};
}

Result<EncodedRelation> JoinComponentsEncoded(const TableSchema& schema,
                                              const EncodedTable& enc,
                                              const Decomposition& d) {
  SQLNF_ASSIGN_OR_RETURN(std::vector<EncodedRelation> parts,
                         ProjectAllEncoded(schema, enc, d));
  if (parts.size() == 1) return std::move(parts[0]);

  // The declaration-order fold's output layout (first occurrence of
  // each attribute across components, NOT NULL taken from the first
  // component carrying it) is the contract callers align against —
  // record it before reordering the fold.
  std::vector<std::string> canon_names;
  std::vector<std::string> canon_not_null;
  for (const EncodedRelation& part : parts) {
    for (AttributeId a = 0; a < part.schema.num_attributes(); ++a) {
      const std::string& attr = part.schema.attribute_name(a);
      if (std::find(canon_names.begin(), canon_names.end(), attr) !=
          canon_names.end()) {
        continue;
      }
      canon_names.push_back(attr);
      if (part.schema.nfs().Contains(a)) canon_not_null.push_back(attr);
    }
  }

  // Fold smallest-output-schema-first (stable tie-break by declaration
  // index): narrow components join early, so the Algorithm-3
  // recombination carries thin intermediates instead of dragging the
  // widest component through every step.
  std::vector<size_t> order(parts.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return parts[a].schema.num_attributes() < parts[b].schema.num_attributes();
  });

  EncodedRelation joined = std::move(parts[order[0]]);
  for (size_t i = 1; i < order.size(); ++i) {
    SQLNF_ASSIGN_OR_RETURN(
        joined, EqualityJoinEncoded(joined.schema, joined.columns,
                                    parts[order[i]].schema,
                                    parts[order[i]].columns,
                                    schema.name() + "_joined"));
  }

  // Restore the declaration-order column layout.
  SQLNF_ASSIGN_OR_RETURN(
      TableSchema canon_schema,
      TableSchema::Make(schema.name() + "_joined", canon_names,
                        canon_not_null));
  std::vector<AttributeId> mapping;
  mapping.reserve(canon_names.size());
  for (const std::string& attr : canon_names) {
    SQLNF_ASSIGN_OR_RETURN(AttributeId id,
                           joined.schema.FindAttribute(attr));
    mapping.push_back(id);
  }
  return EncodedRelation{std::move(canon_schema),
                         joined.columns.GatherColumns(mapping)};
}

bool SameMultisetEncoded(const EncodedTable& a, const EncodedTable& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  const int cols = a.num_columns();
  const int rows = a.num_rows();

  // b's codes carried into a's code space; a row of b holding a value a
  // never saw translates to kMissingCode and can match nothing.
  std::vector<std::vector<uint32_t>> trans(cols);
  for (AttributeId col = 0; col < cols; ++col) {
    trans[col] = b.TranslationTo(col, a, col);
  }
  auto b_code = [&](AttributeId col, int row) {
    const uint32_t c = b.code(col, row);
    return c == EncodedTable::kNullCode ? EncodedTable::kNullCode
                                        : trans[col][c];
  };

  // Multiset compare by hash bucket: count a's rows, then drain with b's.
  struct Entry {
    int row;    // representative row id in a
    int count;  // multiplicity not yet matched
  };
  std::unordered_map<uint64_t, std::vector<Entry>> buckets;
  buckets.reserve(static_cast<size_t>(rows));
  auto hash_a = [&](int row) {
    uint64_t h = kFnv64OffsetBasis;
    for (AttributeId col = 0; col < cols; ++col) {
      h = FnvMix(h, a.code(col, row));
    }
    return h;
  };
  for (int i = 0; i < rows; ++i) {
    std::vector<Entry>& bucket = buckets[hash_a(i)];
    bool found = false;
    for (Entry& e : bucket) {
      bool same = true;
      for (AttributeId col = 0; col < cols; ++col) {
        if (a.code(col, i) != a.code(col, e.row)) {
          same = false;
          break;
        }
      }
      if (same) {
        ++e.count;
        found = true;
        break;
      }
    }
    if (!found) bucket.push_back({i, 1});
  }
  for (int j = 0; j < rows; ++j) {
    uint64_t h = kFnv64OffsetBasis;
    for (AttributeId col = 0; col < cols; ++col) {
      h = FnvMix(h, b_code(col, j));
    }
    auto it = buckets.find(h);
    if (it == buckets.end()) return false;
    bool matched = false;
    for (Entry& e : it->second) {
      bool same = true;
      for (AttributeId col = 0; col < cols; ++col) {
        if (a.code(col, e.row) != b_code(col, j)) {
          same = false;
          break;
        }
      }
      if (same) {
        if (e.count == 0) return false;
        --e.count;
        matched = true;
        break;
      }
    }
    if (!matched) return false;
  }
  return true;  // equal row totals ⟹ every count drained to zero
}

Result<bool> IsLosslessForInstanceEncoded(const TableSchema& schema,
                                          const EncodedTable& enc,
                                          const Decomposition& d) {
  SQLNF_ASSIGN_OR_RETURN(EncodedRelation joined,
                         JoinComponentsEncoded(schema, enc, d));
  if (joined.columns.num_rows() != enc.num_rows()) return false;
  // Align the join's component-ordered columns with the original schema,
  // then compare multisets on codes.
  std::vector<AttributeId> mapping;  // original id -> joined id
  mapping.reserve(schema.num_attributes());
  for (AttributeId a = 0; a < schema.num_attributes(); ++a) {
    SQLNF_ASSIGN_OR_RETURN(
        AttributeId j, joined.schema.FindAttribute(schema.attribute_name(a)));
    mapping.push_back(j);
  }
  return SameMultisetEncoded(enc, joined.columns.GatherColumns(mapping));
}

}  // namespace sqlnf
