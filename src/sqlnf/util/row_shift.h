// Dropping and re-opening rows of a row-indexed vector in place — the
// step DELETE and its rollback share across every per-row array: the
// encoding's code columns (core/encoded_table.h) and the enforcer's
// chain links (engine/enforcer.h). Entries before the first listed row
// never move; the rest move in contiguous blocks, one per gap between
// listed rows.

#ifndef SQLNF_UTIL_ROW_SHIFT_H_
#define SQLNF_UTIL_ROW_SHIFT_H_

#include <algorithm>
#include <cstddef>
#include <vector>

namespace sqlnf {

/// Removes the entries at `rows` (ascending, distinct, all < size);
/// the survivors keep their order.
template <class T>
void EraseRowsAt(std::vector<T>* v, const std::vector<int>& rows) {
  if (rows.empty()) return;
  T* data = v->data();
  size_t write = static_cast<size_t>(rows.front());
  for (size_t k = 0; k < rows.size(); ++k) {
    const size_t from = static_cast<size_t>(rows[k]) + 1;
    const size_t to =
        k + 1 < rows.size() ? static_cast<size_t>(rows[k + 1]) : v->size();
    std::copy(data + from, data + to, data + write);
    write += to - from;
  }
  v->resize(write);
}

/// Inverse of EraseRowsAt: grows `v` by rows.size() entries so that
/// `fill` lands at every position in `rows` (ascending, distinct,
/// positions of the grown vector); the old entries keep their order
/// in the positions left over.
template <class T>
void OpenRowsAt(std::vector<T>* v, const std::vector<int>& rows,
                const T& fill) {
  if (rows.empty()) return;
  const size_t k = rows.size();
  v->resize(v->size() + k);
  T* data = v->data();
  // Block j holds the entries that end up between rows[j] and
  // rows[j + 1]; it sits j + 1 slots lower now. Blocks move up from
  // the back, so no entry is overwritten before it has moved.
  size_t end = v->size();
  for (size_t j = k; j-- > 0;) {
    const size_t first = static_cast<size_t>(rows[j]) + 1;
    std::copy_backward(data + first - (j + 1), data + end - (j + 1),
                       data + end);
    data[rows[j]] = fill;
    end = static_cast<size_t>(rows[j]);
  }
}

}  // namespace sqlnf

#endif  // SQLNF_UTIL_ROW_SHIFT_H_
