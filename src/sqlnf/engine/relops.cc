#include "sqlnf/engine/relops.h"

#include <algorithm>

#include "sqlnf/core/simd_kernels.h"

namespace sqlnf {

std::vector<int> SelectRowsEncoded(const EncodedTable& enc,
                                   const Predicate& pred) {
  std::vector<int> sel;
  // All probing and order-index work happens once, here; the scan
  // below touches only flat uint32 code arrays.
  const CompiledPredicate compiled(enc, pred);
  if (compiled.never_matches()) return sel;
  const int rows = enc.num_rows();
  if (compiled.always_matches()) {
    sel.resize(rows);
    for (int i = 0; i < rows; ++i) sel[i] = i;
    return sel;
  }

  // One pass: each block is evaluated once, and its matching ids are
  // compress-stored into a block-sized buffer and appended. A block
  // whose zones no disjunct can match would evaluate to all zeros, so
  // skipping it leaves the ids and their order unchanged.
  constexpr int kBlock = CompiledPredicate::kBlock;
  const simd::Level level = simd::ActiveLevel();
  uint8_t match[kBlock];
  int ids[kBlock];
  for (int at = 0; at < rows; at += kBlock) {
    if (!compiled.BlockMayMatch(at / kBlock)) continue;
    const int len = std::min(kBlock, rows - at);
    compiled.EvalBlock(at, len, match);
    const int n = simd::CompressStore(level, match, len, at, ids);
    sel.insert(sel.end(), ids, ids + n);
  }
  return sel;
}

Result<Table> CrossWithSequence(const Table& table, int n,
                                const std::string& column) {
  if (n <= 0) return Status::Invalid("sequence length must be positive");
  std::vector<std::string> names = {column};
  std::vector<std::string> not_null = {column};
  for (int i = 0; i < table.num_columns(); ++i) {
    names.push_back(table.schema().attribute_name(i));
    if (table.schema().nfs().Contains(i)) {
      not_null.push_back(table.schema().attribute_name(i));
    }
  }
  SQLNF_ASSIGN_OR_RETURN(
      TableSchema schema,
      TableSchema::Make(table.schema().name() + "_x" + std::to_string(n),
                        names, not_null));
  Table out(std::move(schema));
  for (int k = 1; k <= n; ++k) {
    for (const Tuple& t : table.rows()) {
      std::vector<Value> row;
      row.reserve(t.size() + 1);
      row.push_back(Value::Int(k));
      for (const Value& v : t.values()) row.push_back(v);
      SQLNF_RETURN_NOT_OK(out.AddRow(Tuple(std::move(row))));
    }
  }
  return out;
}

}  // namespace sqlnf
