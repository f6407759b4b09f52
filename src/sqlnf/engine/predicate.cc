#include "sqlnf/engine/predicate.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <string>
#include <utility>

namespace sqlnf {

PredicateAtom Cmp(AttributeId column, CompareOp op, Value value) {
  PredicateAtom atom;
  atom.column = column;
  atom.op = op;
  atom.value = std::move(value);
  return atom;
}

PredicateAtom Between(AttributeId column, Value lo, Value hi) {
  PredicateAtom atom;
  atom.column = column;
  atom.op = CompareOp::kBetween;
  atom.value = std::move(lo);
  atom.upper = std::move(hi);
  return atom;
}

PredicateAtom In(AttributeId column, std::vector<Value> list) {
  PredicateAtom atom;
  atom.column = column;
  atom.op = CompareOp::kIn;
  atom.list = std::move(list);
  return atom;
}

Status ValidatePredicate(const Predicate& pred, int num_columns) {
  for (const Conjunction& conj : pred.disjuncts) {
    for (const PredicateAtom& atom : conj) {
      if (atom.column < 0 || atom.column >= num_columns) {
        return Status::Invalid("predicate column " +
                               std::to_string(atom.column) +
                               " out of range");
      }
      if (atom.op == CompareOp::kIn && !atom.upper.is_null()) {
        return Status::Invalid("IN atom carries a BETWEEN upper bound");
      }
      if (atom.op != CompareOp::kIn && !atom.list.empty()) {
        return Status::Invalid("non-IN atom carries an IN list");
      }
      if (atom.op != CompareOp::kBetween && atom.op != CompareOp::kIn &&
          !atom.upper.is_null()) {
        return Status::Invalid("upper bound outside BETWEEN");
      }
    }
  }
  return Status::OK();
}

bool MatchesAtom(const Value& cell, const PredicateAtom& atom) {
  switch (atom.op) {
    case CompareOp::kEq:
      return cell == atom.value;
    case CompareOp::kNe:
      return !(cell == atom.value);
    case CompareOp::kLt:
      if (cell.is_null() || atom.value.is_null()) return false;
      return cell < atom.value;
    case CompareOp::kLe:
      if (cell.is_null() || atom.value.is_null()) return false;
      return !(atom.value < cell);
    case CompareOp::kGt:
      if (cell.is_null() || atom.value.is_null()) return false;
      return atom.value < cell;
    case CompareOp::kGe:
      if (cell.is_null() || atom.value.is_null()) return false;
      return !(cell < atom.value);
    case CompareOp::kBetween:
      if (cell.is_null() || atom.value.is_null() || atom.upper.is_null()) {
        return false;
      }
      return !(cell < atom.value) && !(atom.upper < cell);
    case CompareOp::kIn:
      for (const Value& member : atom.list) {
        if (cell == member) return true;
      }
      return false;
  }
  return false;
}

std::vector<Predicate> JoinInputFilters(
    const Predicate& where, const TableSchema& joined,
    const std::vector<const TableSchema*>& inputs) {
  std::vector<Predicate> filters;
  filters.reserve(inputs.size());
  for (const TableSchema* input : inputs) {
    std::vector<int> id(joined.num_attributes(), -1);
    for (AttributeId c = 0; c < joined.num_attributes(); ++c) {
      auto found = input->FindAttribute(joined.attribute_name(c));
      if (found.ok()) id[c] = *found;
    }
    Predicate filter;
    for (const Conjunction& conj : where.disjuncts) {
      Conjunction local;
      for (const PredicateAtom& atom : conj) {
        if (id[atom.column] < 0) continue;
        local.push_back(atom);
        local.back().column = static_cast<AttributeId>(id[atom.column]);
      }
      if (local.empty()) {
        filter = Predicate::True();
        break;
      }
      filter.disjuncts.push_back(std::move(local));
    }
    filters.push_back(std::move(filter));
  }
  return filters;
}

bool MatchesPredicate(const Tuple& t, const Predicate& pred) {
  for (const Conjunction& conj : pred.disjuncts) {
    bool all = true;
    for (const PredicateAtom& atom : conj) {
      if (!MatchesAtom(t[atom.column], atom)) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

CompiledPredicate::CompiledPredicate(const EncodedTable& enc,
                                     const Predicate& pred) {
  for (const Conjunction& conj : pred.disjuncts) {
    std::vector<Atom> compiled;
    compiled.reserve(conj.size());
    bool feasible = true;
    for (const PredicateAtom& atom : conj) {
      assert(enc.encoded_columns().Contains(atom.column));
      const uint32_t d =
          static_cast<uint32_t>(enc.dictionary_size(atom.column));
      Atom out;
      out.codes = enc.column(atom.column).data();
      out.zones = enc.zones(atom.column).data();
      out.d = d;
      auto rank_interval = [&](uint32_t lo, uint32_t hi) {
        // Half-open [lo, hi) over ranks; empty interval kills the
        // conjunction. On an ordered dictionary rank is the identity,
        // so the same interval tests raw codes with no gather —
        // kNullCode wraps far above any span, keeping ⊥ excluded.
        if (lo >= hi) {
          feasible = false;
          return;
        }
        out.lo = lo;
        out.span = hi - lo;
        if (enc.DictionaryOrdered(atom.column)) {
          out.kind = Atom::Kind::kCodeInterval;
        } else {
          out.kind = Atom::Kind::kRankInterval;
          out.rank = enc.CodeRanks(atom.column).data();
        }
      };
      switch (atom.op) {
        case CompareOp::kEq:
          // A value absent from the dictionary matches no cell.
          out.kind = Atom::Kind::kEqCode;
          out.want = enc.LookupCode(atom.column, atom.value);
          if (out.want == EncodedTable::kMissingCode) feasible = false;
          break;
        case CompareOp::kNe:
          // want == kMissingCode correctly matches every row.
          out.kind = Atom::Kind::kNeCode;
          out.want = enc.LookupCode(atom.column, atom.value);
          break;
        case CompareOp::kLt:
          if (atom.value.is_null()) {
            feasible = false;
            break;
          }
          rank_interval(0, enc.LowerBoundRank(atom.column, atom.value));
          break;
        case CompareOp::kLe:
          if (atom.value.is_null()) {
            feasible = false;
            break;
          }
          rank_interval(0, enc.UpperBoundRank(atom.column, atom.value));
          break;
        case CompareOp::kGt:
          if (atom.value.is_null()) {
            feasible = false;
            break;
          }
          rank_interval(enc.UpperBoundRank(atom.column, atom.value), d);
          break;
        case CompareOp::kGe:
          if (atom.value.is_null()) {
            feasible = false;
            break;
          }
          rank_interval(enc.LowerBoundRank(atom.column, atom.value), d);
          break;
        case CompareOp::kBetween:
          if (atom.value.is_null() || atom.upper.is_null()) {
            feasible = false;
            break;
          }
          rank_interval(enc.LowerBoundRank(atom.column, atom.value),
                        enc.UpperBoundRank(atom.column, atom.upper));
          break;
        case CompareOp::kIn: {
          // Membership byte table over codes; slot d is ⊥ (kNullCode
          // gathers onto it via min(code, d)).
          out.kind = Atom::Kind::kTable;
          // d+1 live slots plus the pad bytes the AVX2 scale-1 gather
          // reads past slot d (simd::ByteTable contract).
          out.table.assign(d + 1 + simd::kByteTablePad, 0);
          bool any = false;
          for (const Value& member : atom.list) {
            const uint32_t code = enc.LookupCode(atom.column, member);
            if (code == EncodedTable::kMissingCode) continue;
            out.table[std::min(code, d)] = 1;
            out.members.push_back(code);
            any = true;
          }
          if (!any) feasible = false;
          std::sort(out.members.begin(), out.members.end());
          break;
        }
      }
      if (!feasible) break;
      compiled.push_back(std::move(out));
    }
    if (!feasible) continue;  // this disjunct can never match
    if (compiled.empty()) always_ = true;
    disjuncts_.push_back(std::move(compiled));
  }
}

void CompiledPredicate::ApplyAtom(const Atom& atom, simd::Level level,
                                  int64_t begin, int len, simd::Store store,
                                  uint8_t* out) {
  const uint32_t* codes = atom.codes + begin;
  switch (atom.kind) {
    case Atom::Kind::kEqCode:
      simd::EqCode(level, codes, len, atom.want, store, out);
      break;
    case Atom::Kind::kNeCode:
      simd::NeCode(level, codes, len, atom.want, store, out);
      break;
    case Atom::Kind::kCodeInterval:
      // Unsigned wrap: kNullCode - lo lands far above span, so ⊥
      // (and any code below lo) tests false without a branch.
      simd::CodeInterval(level, codes, len, atom.lo, atom.span, store, out);
      break;
    case Atom::Kind::kRankInterval:
      simd::RankInterval(level, codes, len, atom.rank, atom.d, atom.lo,
                         atom.span, store, out);
      break;
    case Atom::Kind::kTable:
      simd::ByteTable(level, codes, len, atom.table.data(), atom.d, store,
                      out);
      break;
  }
}

bool CompiledPredicate::AtomMayMatch(const Atom& atom, int64_t block) {
  const uint32_t lo = atom.zones[2 * block];
  const uint32_t hi = atom.zones[2 * block + 1];
  switch (atom.kind) {
    case Atom::Kind::kEqCode:
      return lo <= atom.want && atom.want <= hi;
    case Atom::Kind::kNeCode:
      return lo != atom.want || hi != atom.want;
    case Atom::Kind::kCodeInterval:
      // [atom.lo, atom.lo + span - 1] meets [lo, hi]; the sum stays
      // below the dictionary size, so it cannot wrap.
      return lo < atom.lo + atom.span && atom.lo <= hi;
    case Atom::Kind::kRankInterval:
      return true;
    case Atom::Kind::kTable: {
      const auto it =
          std::lower_bound(atom.members.begin(), atom.members.end(), lo);
      return it != atom.members.end() && *it <= hi;
    }
  }
  return true;
}

bool CompiledPredicate::BlockMayMatch(int64_t block) const {
  for (const std::vector<Atom>& atoms : disjuncts_) {
    if (std::all_of(atoms.begin(), atoms.end(), [block](const Atom& atom) {
          return AtomMayMatch(atom, block);
        })) {
      return true;
    }
  }
  return false;
}

void CompiledPredicate::EvalBlock(int64_t begin, int64_t n,
                                  uint8_t* match) const {
  assert(n <= kBlock);
  const int len = static_cast<int>(n);
  if (disjuncts_.empty()) {
    std::memset(match, 0, static_cast<size_t>(len));
    return;
  }
  // Resolve the dispatch level once per block, not per atom: the
  // override/env lookup stays off the inner path, and every atom of
  // the block provably runs at one level.
  const simd::Level level = simd::ActiveLevel();
  // The first disjunct writes `match` directly; later disjuncts build
  // their conjunction in scratch and OR it in. A one-range predicate
  // is then a single assign loop over the block — no zero-init, no
  // fill-with-ones, no merge.
  uint8_t conj[kBlock];
  bool first_disjunct = true;
  for (const std::vector<Atom>& atoms : disjuncts_) {
    uint8_t* out = first_disjunct ? match : conj;
    bool first_atom = true;
    for (const Atom& atom : atoms) {
      ApplyAtom(atom, level, begin, len,
                first_atom ? simd::Store::kAssign : simd::Store::kAnd, out);
      first_atom = false;
    }
    // An empty conjunction is TRUE (the compiler marks always_, but
    // stay correct if EvalBlock is called anyway).
    if (first_atom) {
      std::memset(out, 1, static_cast<size_t>(len));
    }
    if (!first_disjunct) {
      simd::OrBytes(level, conj, len, match);
    }
    first_disjunct = false;
  }
}

}  // namespace sqlnf
