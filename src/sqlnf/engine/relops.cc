#include "sqlnf/engine/relops.h"

#include <algorithm>
#include <optional>

#include "sqlnf/core/simd_kernels.h"

namespace sqlnf {

std::vector<int> SelectRowsEncoded(const EncodedTable& enc,
                                   const Predicate& pred,
                                   const ParallelOptions& par) {
  std::vector<int> sel;
  // All probing and order-index work happens once, here; the scan
  // below touches only flat uint32 code arrays. The compiled form is
  // immutable and shared read-only by all scan threads.
  const CompiledPredicate compiled(enc, pred);
  if (compiled.never_matches()) return sel;
  if (compiled.always_matches()) {
    sel.resize(enc.num_rows());
    for (int i = 0; i < enc.num_rows(); ++i) sel[i] = i;
    return sel;
  }

  std::optional<ThreadPool> pool_storage;
  if (par.threads > 1 && enc.num_rows() > 1) {
    pool_storage.emplace(par.threads);
  }
  constexpr int kBlock = CompiledPredicate::kBlock;
  // Both phases run the same EvalBlock kernels; the count phase sums
  // match bytes (simd::CountBytes) and the fill phase compress-stores
  // the selected row ids (simd::CompressStore) into this chunk's
  // exactly-sized window of `sel` — each chunk writes a disjoint
  // range, so the emission stays bit-identical at any thread count.
  const simd::Level level = simd::ActiveLevel();
  ParallelEmit(
      pool_storage ? &*pool_storage : nullptr, 0, enc.num_rows(),
      [&](int64_t b, int64_t e) {
        uint8_t match[kBlock];
        int64_t n = 0;
        for (int64_t at = b; at < e; at += kBlock) {
          const int64_t len = std::min<int64_t>(kBlock, e - at);
          compiled.EvalBlock(at, len, match);
          n += simd::CountBytes(level, match, static_cast<int>(len));
        }
        return n;
      },
      [&](int64_t total) { sel.resize(total); },
      [&](int64_t b, int64_t e, int64_t offset) {
        uint8_t match[kBlock];
        for (int64_t at = b; at < e; at += kBlock) {
          const int64_t len = std::min<int64_t>(kBlock, e - at);
          compiled.EvalBlock(at, len, match);
          offset += simd::CompressStore(level, match, static_cast<int>(len),
                                        static_cast<int>(at),
                                        sel.data() + offset);
        }
      });
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
