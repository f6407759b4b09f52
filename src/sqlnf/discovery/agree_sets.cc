#include "sqlnf/discovery/agree_sets.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <unordered_set>

#include "sqlnf/util/parallel.h"

namespace sqlnf {

PairAgreement ComputeAgreement(const EncodedTable& enc, int row1,
                               int row2) {
  PairAgreement out;
  for (AttributeId col = 0; col < enc.num_columns(); ++col) {
    const uint32_t a = enc.code(col, row1);
    const uint32_t b = enc.code(col, row2);
    if (a == b) {
      out.eq.Add(col);
      out.weak.Add(col);
      if (a != EncodedTable::kNullCode) out.strong.Add(col);
    } else if (a == EncodedTable::kNullCode ||
               b == EncodedTable::kNullCode) {
      out.weak.Add(col);
    }
  }
  return out;
}

namespace {

struct TripleHash {
  size_t operator()(const std::array<uint64_t, 3>& t) const {
    return t[0] * 1000003 + t[1] * 31 + t[2];
  }
};
using TripleKey = std::array<uint64_t, 3>;
using SeenSet = std::unordered_set<TripleKey, TripleHash>;

TripleKey KeyOf(const PairAgreement& agreement) {
  return {agreement.eq.bits(), agreement.strong.bits(),
          agreement.weak.bits()};
}

// Sweeps the triangle slice with outer rows in [row_begin, row_end),
// inner rows up to n, deduplicating into `seen`/`out` in (i, j) order.
void SweepSlice(const EncodedTable& enc, int n, int row_begin, int row_end,
                SeenSet* seen, std::vector<PairAgreement>* out) {
  for (int i = row_begin; i < row_end; ++i) {
    for (int j = i + 1; j < n; ++j) {
      PairAgreement agreement = ComputeAgreement(enc, i, j);
      if (seen->insert(KeyOf(agreement)).second) {
        out->push_back(agreement);
      }
    }
  }
}

}  // namespace

std::vector<PairAgreement> CollectAgreements(const EncodedTable& enc,
                                             int max_rows, int threads) {
  int n = enc.num_rows();
  if (max_rows > 0 && max_rows < n) n = max_rows;

  if (threads <= 1 || n < 256) {
    SeenSet seen;
    std::vector<PairAgreement> out;
    SweepSlice(enc, n, 0, n, &seen, &out);
    return out;
  }

  // Chunk the outer rows so each chunk covers roughly the same number of
  // PAIRS (outer row i owns n-1-i pairs): the boundary for cumulative
  // fraction f of the triangle is b = n·(1 − √(1−f)). Chunks exceed the
  // thread count for dynamic load balancing.
  const int chunks = std::min(n, threads * 8);
  std::vector<int> bounds(chunks + 1, n);
  bounds[0] = 0;
  for (int c = 1; c < chunks; ++c) {
    const double f = static_cast<double>(c) / chunks;
    int b = static_cast<int>(n * (1.0 - std::sqrt(1.0 - f)));
    bounds[c] = std::clamp(b, bounds[c - 1], n);
  }

  // Per-chunk sweep with local dedup; chunks keep (i, j) order.
  struct Slice {
    SeenSet seen;
    std::vector<PairAgreement> out;
  };
  std::vector<Slice> slices(chunks);
  ForkJoin(threads, chunks, [&](int c) {
    SweepSlice(enc, n, bounds[c], bounds[c + 1], &slices[c].seen,
               &slices[c].out);
  });

  // Ordered merge: chunks partition the outer rows in ascending order,
  // so folding them in chunk order against one global seen-set yields
  // exactly the serial output (same triples, same first-occurrence
  // positions).
  SeenSet seen;
  std::vector<PairAgreement> out;
  for (Slice& slice : slices) {
    for (PairAgreement& agreement : slice.out) {
      if (seen.insert(KeyOf(agreement)).second) {
        out.push_back(agreement);
      }
    }
  }
  return out;
}

std::vector<AttributeSet> MaximalSets(std::vector<AttributeSet> sets) {
  std::sort(sets.begin(), sets.end(),
            [](const AttributeSet& a, const AttributeSet& b) {
              return a.size() > b.size();
            });
  std::vector<AttributeSet> maximal;
  for (const AttributeSet& s : sets) {
    bool dominated = false;
    for (const AttributeSet& m : maximal) {
      if (s.IsSubsetOf(m)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) maximal.push_back(s);
  }
  return maximal;
}

}  // namespace sqlnf
