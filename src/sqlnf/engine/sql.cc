#include "sqlnf/engine/sql.h"

#include <cctype>
#include <charconv>
#include <functional>
#include <optional>
#include <utility>

#include "sqlnf/decomposition/encoded_ops.h"
#include "sqlnf/engine/relops.h"
#include "sqlnf/util/string_util.h"

namespace sqlnf {

namespace {

// ---------------------------------------------------------------- lexer

enum class TokenKind { kIdentifier, kString, kNumber, kSymbol, kEnd };

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;   // identifier (as written), symbol, digits, or
                      // unescaped string body
  std::string upper;  // identifier uppercased, for keyword matching
  size_t offset = 0;  // byte offset of the token in the statement text
};

Result<std::vector<Token>> Lex(std::string_view sql, int* error_offset) {
  std::vector<Token> out;
  size_t i = 0;
  auto push_symbol = [&](std::string s, size_t at) {
    out.push_back({TokenKind::kSymbol, std::move(s), "", at});
  };
  auto fail = [&](size_t at, std::string msg) {
    if (error_offset != nullptr) *error_offset = static_cast<int>(at);
    return Status::ParseError(std::move(msg));
  };
  while (i < sql.size()) {
    const size_t start = i;
    char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '-' && i + 1 < sql.size() && sql[i + 1] == '-') {
      while (i < sql.size() && sql[i] != '\n') ++i;  // line comment
      continue;
    }
    if (c == '\'') {
      std::string body;
      ++i;
      bool closed = false;
      while (i < sql.size()) {
        if (sql[i] == '\'') {
          if (i + 1 < sql.size() && sql[i + 1] == '\'') {
            body += '\'';
            i += 2;
            continue;
          }
          ++i;
          closed = true;
          break;
        }
        body += sql[i++];
      }
      if (!closed) return fail(start, "unterminated string literal");
      out.push_back({TokenKind::kString, std::move(body), "", start});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && i + 1 < sql.size() &&
         std::isdigit(static_cast<unsigned char>(sql[i + 1])))) {
      std::string digits(1, c);
      ++i;
      while (i < sql.size() &&
             std::isdigit(static_cast<unsigned char>(sql[i]))) {
        digits += sql[i++];
      }
      out.push_back({TokenKind::kNumber, std::move(digits), "", start});
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::string word;
      while (i < sql.size() &&
             (std::isalnum(static_cast<unsigned char>(sql[i])) ||
              sql[i] == '_')) {
        word += sql[i++];
      }
      std::string upper = word;
      for (char& ch : upper) {
        ch = static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
      }
      out.push_back({TokenKind::kIdentifier, std::move(word),
                     std::move(upper), start});
      continue;
    }
    if (c == '-' && i + 1 < sql.size() && sql[i + 1] == '>') {
      push_symbol("->", start);
      i += 2;
      continue;
    }
    // Comparison operators; the two-character forms lex as one token.
    if (c == '<') {
      if (i + 1 < sql.size() && (sql[i + 1] == '=' || sql[i + 1] == '>')) {
        push_symbol(std::string("<") + sql[i + 1], start);
        i += 2;
      } else {
        push_symbol("<", start);
        ++i;
      }
      continue;
    }
    if (c == '>') {
      if (i + 1 < sql.size() && sql[i + 1] == '=') {
        push_symbol(">=", start);
        i += 2;
      } else {
        push_symbol(">", start);
        ++i;
      }
      continue;
    }
    if (c == '!') {
      if (i + 1 < sql.size() && sql[i + 1] == '=') {
        push_symbol("!=", start);
        i += 2;
        continue;
      }
      return fail(start, "unexpected character '!' in SQL");
    }
    if (std::string("(),=;*").find(c) != std::string::npos) {
      push_symbol(std::string(1, c), start);
      ++i;
      continue;
    }
    return fail(start,
                std::string("unexpected character '") + c + "' in SQL");
  }
  out.push_back({TokenKind::kEnd, "", "", sql.size()});
  return out;
}

// ------------------------------------------------ parsed statement forms
//
// The parser produces these database-independent structures; binding
// against storage happens afterwards, against either the live catalog
// (writer thread) or a snapshot map (any reader thread). Keeping the
// parse output purely textual is what lets one grammar serve both
// sides of the concurrency contract without a capability ever hiding
// behind an indirection.

/// A name plus where it appeared (for error offsets at bind time).
struct NamedRef {
  std::string name;
  size_t offset = 0;
};

/// One WHERE atom, columns still by name.
struct ParsedAtom {
  enum class Kind { kCompare, kBetween, kIn };
  Kind atom_kind = Kind::kCompare;
  std::string col;
  size_t col_offset = 0;
  CompareOp op = CompareOp::kEq;  // kCompare
  Value value;                    // kCompare
  Value lo, hi;                   // kBetween
  std::vector<Value> list;        // kIn
};

/// WHERE in DNF, columns unresolved. No disjuncts = no WHERE clause.
struct ParsedWhere {
  std::vector<std::vector<ParsedAtom>> disjuncts;
};

/// SELECT proj FROM t [NATURAL JOIN u]* [WHERE ...].
struct ParsedSelect {
  bool star = false;
  std::vector<NamedRef> cols;    // empty when star
  std::vector<NamedRef> tables;  // FROM first, then the join chain
  ParsedWhere where;
};

/// One bound table: schema + encoded columns, wherever they live (a
/// StoredTable's live encoding or a snapshot's immutable columns).
struct TableRef {
  const TableSchema* schema = nullptr;
  const EncodedTable* columns = nullptr;
};

/// Resolves a ParsedWhere against the (possibly joined) schema. On an
/// unknown column, reports the atom's offset through `error_offset`.
Result<Predicate> BindWhere(const ParsedWhere& where,
                            const TableSchema& schema, int* error_offset) {
  if (where.disjuncts.empty()) return Predicate::True();
  Predicate pred;
  for (const std::vector<ParsedAtom>& parsed_conj : where.disjuncts) {
    Conjunction conj;
    for (const ParsedAtom& atom : parsed_conj) {
      auto id_or = schema.FindAttribute(atom.col);
      if (!id_or.ok()) {
        if (error_offset != nullptr) {
          *error_offset = static_cast<int>(atom.col_offset);
        }
        return id_or.status();
      }
      const AttributeId id = *id_or;
      switch (atom.atom_kind) {
        case ParsedAtom::Kind::kCompare:
          conj.push_back(Cmp(id, atom.op, atom.value));
          break;
        case ParsedAtom::Kind::kBetween:
          conj.push_back(Between(id, atom.lo, atom.hi));
          break;
        case ParsedAtom::Kind::kIn:
          conj.push_back(In(id, atom.list));
          break;
      }
    }
    pred.disjuncts.push_back(std::move(conj));
  }
  return pred;
}

/// A join input filtered by `filter`: the input itself when the filter
/// keeps every row, else its kept rows gathered into `*storage`.
const EncodedTable* FilterJoinInput(const EncodedTable& input,
                                    const Predicate& filter,
                                    std::optional<EncodedTable>* storage) {
  if (filter.IsTrue()) return &input;
  const std::vector<int> rows = SelectRowsEncoded(input, filter);
  if (static_cast<int>(rows.size()) == input.num_rows()) return &input;
  storage->emplace(input.GatherRows(rows));
  return &**storage;
}

/// The shared SELECT executor. Binds the WHERE against the joined
/// schema, filters each join input by what the WHERE implies for it
/// (engine/predicate.h JoinInputFilters), joins the filtered inputs,
/// applies the full WHERE to the join's output — which keeps an OR
/// spanning inputs exact — and gathers the codes of the selected rows
/// of the projected columns into the result, which shares their
/// dictionaries and decodes nothing (engine/result.h). The rows and
/// their order are those of joining whole tables and filtering
/// afterwards: the join emits left-major with right rows ascending, and
/// filtered inputs keep their ascending order, so the output is the
/// same subsequence. A single-table SELECT is one scan and one gather.
/// Role-free — it reads only through the TableRefs the caller resolved,
/// never the Database.
Result<QueryResult> SelectCore(const ParsedSelect& ps,
                               const std::vector<TableRef>& refs,
                               int* error_offset) {
  // The joined schema comes before any scan, so an unknown WHERE column
  // fails against it exactly as when the WHERE bound after the join.
  const std::string join_name = ps.tables[0].name + "_join";
  std::optional<TableSchema> joined_schema;
  for (size_t i = 1; i < refs.size(); ++i) {
    SQLNF_ASSIGN_OR_RETURN(
        TableSchema next,
        NaturalJoinSchema(joined_schema ? *joined_schema : *refs[0].schema,
                          *refs[i].schema, join_name));
    joined_schema = std::move(next);
  }
  SQLNF_ASSIGN_OR_RETURN(
      Predicate conditions,
      BindWhere(ps.where, joined_schema ? *joined_schema : *refs[0].schema,
                error_offset));

  const TableSchema* cur_schema = refs[0].schema;
  const EncodedTable* cur_cols = refs[0].columns;
  std::optional<EncodedRelation> joined;
  if (joined_schema) {
    std::vector<const TableSchema*> schemas;
    for (const TableRef& ref : refs) schemas.push_back(ref.schema);
    const std::vector<Predicate> filters =
        JoinInputFilters(conditions, *joined_schema, schemas);
    std::vector<std::optional<EncodedTable>> filtered(refs.size());
    cur_cols = FilterJoinInput(*refs[0].columns, filters[0], &filtered[0]);
    for (size_t i = 1; i < refs.size(); ++i) {
      const EncodedTable* right =
          FilterJoinInput(*refs[i].columns, filters[i], &filtered[i]);
      SQLNF_ASSIGN_OR_RETURN(
          EncodedRelation next,
          EqualityJoinEncoded(*cur_schema, *cur_cols, *refs[i].schema,
                              *right, join_name));
      joined = std::move(next);
      cur_schema = &joined->schema;
      cur_cols = &joined->columns;
    }
  }

  const std::vector<int> sel = SelectRowsEncoded(*cur_cols, conditions);
  std::vector<AttributeId> ids;
  std::optional<TableSchema> out_schema;
  if (ps.star) {
    ids.resize(cur_schema->num_attributes());
    for (AttributeId a = 0; a < cur_schema->num_attributes(); ++a) {
      ids[a] = a;
    }
    out_schema = *cur_schema;
  } else {
    // Projection preserving the requested column order.
    std::vector<std::string> names;
    for (const NamedRef& col : ps.cols) {
      auto id_or = cur_schema->FindAttribute(col.name);
      if (!id_or.ok()) {
        if (error_offset != nullptr) {
          *error_offset = static_cast<int>(col.offset);
        }
        return id_or.status();
      }
      ids.push_back(*id_or);
      names.push_back(col.name);
    }
    SQLNF_ASSIGN_OR_RETURN(TableSchema schema,
                           TableSchema::Make("result", names));
    out_schema = std::move(schema);
  }
  QueryResult result;
  result.affected = static_cast<int>(sel.size());
  result.message = std::to_string(sel.size()) + " row(s)";
  result.rows.emplace(std::move(*out_schema),
                      cur_cols->GatherColumns(ids).GatherRows(sel));
  return result;
}

/// SHOW TABLES payload from (name, rows) pairs.
Result<QueryResult> MakeShowResult(
    const std::vector<std::pair<std::string, int>>& tables) {
  SQLNF_ASSIGN_OR_RETURN(TableSchema schema,
                         TableSchema::Make("tables", {"name", "rows"}));
  Table listing(std::move(schema));
  for (const auto& [name, rows] : tables) {
    SQLNF_RETURN_NOT_OK(
        listing.AddRow(Tuple({Value::Str(name), Value::Int(rows)})));
  }
  QueryResult result;
  result.message = std::to_string(listing.num_rows()) + " table(s)";
  result.rows = std::move(listing);
  return result;
}

/// DESCRIBE payload from a schema + constraint set.
Result<QueryResult> MakeDescribeResult(const TableSchema& schema,
                                       const ConstraintSet& sigma) {
  SQLNF_ASSIGN_OR_RETURN(
      TableSchema out_schema,
      TableSchema::Make("columns", {"column", "not_null"}));
  Table listing(std::move(out_schema));
  for (AttributeId a = 0; a < schema.num_attributes(); ++a) {
    SQLNF_RETURN_NOT_OK(listing.AddRow(
        Tuple({Value::Str(schema.attribute_name(a)),
               Value::Str(schema.nfs().Contains(a) ? "yes" : "no")})));
  }
  QueryResult result;
  result.message = "constraints: " + sigma.ToString(schema);
  result.rows = std::move(listing);
  return result;
}

// --------------------------------------------------------------- parser

// Write-capable statements execute as they parse, so every method that
// reaches the Database inherits the session's WriterThread role
// requirement (engine/writer_role.h). The read-only statements
// (SELECT / SHOW / DESCRIBE) parse into the textual structures above
// and bind afterwards — ParseAndExecuteReadOnly resolves them against
// a snapshot map with no role at all.
class Parser {
 public:
  // `db` may be null for read-only parsing (ParseAndExecuteReadOnly).
  Parser(std::vector<Token> tokens, Database* db)
      : tokens_(std::move(tokens)), db_(db) {}

  /// Byte offset (within the statement) of the token that produced the
  /// last error; -1 when no error was located.
  int error_offset() const { return error_offset_; }

  Result<QueryResult> ParseAndExecute() SQLNF_REQUIRES(writer_thread_role) {
    if (AcceptKeyword("CREATE")) return Create();
    if (AcceptKeyword("INSERT")) return Insert();
    if (AcceptKeyword("SELECT")) {
      SQLNF_ASSIGN_OR_RETURN(ParsedSelect ps, ParseSelectStatement());
      return SelectLive(ps);
    }
    if (AcceptKeyword("UPDATE")) return Update();
    if (AcceptKeyword("DELETE")) return Delete();
    if (AcceptKeyword("DROP")) return Drop();
    if (AcceptKeyword("VACUUM")) return Vacuum();
    if (AcceptKeyword("SHOW")) {
      SQLNF_RETURN_NOT_OK(ParseShowStatement());
      return ShowLive();
    }
    if (AcceptKeyword("DESCRIBE")) {
      SQLNF_ASSIGN_OR_RETURN(NamedRef table, ParseDescribeStatement());
      return DescribeLive(table);
    }
    if (AcceptKeyword("BEGIN")) return Begin();
    if (AcceptKeyword("COMMIT")) return TxnEnd(/*commit=*/true);
    if (AcceptKeyword("ROLLBACK")) return TxnEnd(/*commit=*/false);
    return ParseErrorHere("unknown statement: expected CREATE / "
                          "INSERT / SELECT / UPDATE / DELETE / DROP / "
                          "VACUUM / SHOW / DESCRIBE / BEGIN / COMMIT / "
                          "ROLLBACK");
  }

  /// The snapshot-bound executor: SELECT / SHOW / DESCRIBE against a
  /// consistent snapshot map. Role-free by construction — only the
  /// immutable snapshot columns are touched.
  Result<QueryResult> ParseAndExecuteReadOnly(
      const std::map<std::string, TableSnapshot>& snaps) {
    if (AcceptKeyword("SELECT")) {
      SQLNF_ASSIGN_OR_RETURN(ParsedSelect ps, ParseSelectStatement());
      return SelectSnap(ps, snaps);
    }
    if (AcceptKeyword("SHOW")) {
      SQLNF_RETURN_NOT_OK(ParseShowStatement());
      std::vector<std::pair<std::string, int>> tables;
      for (const auto& [name, snap] : snaps) {
        tables.emplace_back(name, snap.num_rows());
      }
      return MakeShowResult(tables);
    }
    if (AcceptKeyword("DESCRIBE")) {
      SQLNF_ASSIGN_OR_RETURN(NamedRef table, ParseDescribeStatement());
      auto it = snaps.find(table.name);
      if (it == snaps.end()) {
        error_offset_ = static_cast<int>(table.offset);
        return Status::NotFound("no table named '" + table.name + "'");
      }
      return MakeDescribeResult(it->second.schema, it->second.sigma);
    }
    return ParseErrorHere(
        "read-only execution supports SELECT / SHOW / DESCRIBE only");
  }

 private:
  // ---- token helpers.
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Next() { return tokens_[pos_++]; }
  Status ParseErrorHere(std::string msg) {
    error_offset_ = static_cast<int>(Peek().offset);
    return Status::ParseError(std::move(msg));
  }
  bool AcceptKeyword(const char* kw) {
    if (Peek().kind == TokenKind::kIdentifier && Peek().upper == kw) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status ExpectKeyword(const char* kw) {
    if (!AcceptKeyword(kw)) {
      return ParseErrorHere(std::string("expected ") + kw + ", got '" +
                            Peek().text + "'");
    }
    return Status::OK();
  }
  bool AcceptSymbol(const char* s) {
    if (Peek().kind == TokenKind::kSymbol && Peek().text == s) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status ExpectSymbol(const char* s) {
    if (!AcceptSymbol(s)) {
      return ParseErrorHere(std::string("expected '") + s + "', got '" +
                            Peek().text + "'");
    }
    return Status::OK();
  }
  Result<std::string> ExpectIdentifier() {
    if (Peek().kind != TokenKind::kIdentifier) {
      return ParseErrorHere("expected identifier, got '" + Peek().text +
                            "'");
    }
    return Next().text;
  }
  Result<NamedRef> ExpectNamedRef() {
    if (Peek().kind != TokenKind::kIdentifier) {
      return ParseErrorHere("expected identifier, got '" + Peek().text +
                            "'");
    }
    const Token& tok = Next();
    return NamedRef{tok.text, tok.offset};
  }
  Result<Value> ExpectLiteral() {
    if (Peek().kind == TokenKind::kString) return Value::Str(Next().text);
    if (Peek().kind == TokenKind::kNumber) {
      // The lexer guarantees an optional '-' and digits; only the range
      // can fail.
      const std::string& digits = Peek().text;
      int64_t v = 0;
      if (std::from_chars(digits.data(), digits.data() + digits.size(), v)
              .ec != std::errc()) {
        return ParseErrorHere("integer literal out of range: " + digits);
      }
      ++pos_;
      return Value::Int(v);
    }
    if (Peek().kind == TokenKind::kIdentifier && Peek().upper == "NULL") {
      ++pos_;
      return Value::Null();
    }
    return ParseErrorHere("expected literal, got '" + Peek().text + "'");
  }
  Status ExpectStatementEnd() {
    AcceptSymbol(";");
    if (Peek().kind != TokenKind::kEnd) {
      return ParseErrorHere("trailing input after statement: '" +
                            Peek().text + "'");
    }
    return Status::OK();
  }

  // Parenthesized comma-separated column-name list (after the '(').
  Result<std::vector<std::string>> ColumnList() {
    std::vector<std::string> cols;
    do {
      SQLNF_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier());
      cols.push_back(std::move(col));
    } while (AcceptSymbol(","));
    SQLNF_RETURN_NOT_OK(ExpectSymbol(")"));
    return cols;
  }

  // ---- statements.
  Result<QueryResult> Create() SQLNF_REQUIRES(writer_thread_role) {
    SQLNF_RETURN_NOT_OK(ExpectKeyword("TABLE"));
    SQLNF_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier());
    SQLNF_RETURN_NOT_OK(ExpectSymbol("("));

    std::vector<std::string> columns;
    std::vector<std::string> not_null;
    struct PendingKey {
      std::vector<std::string> cols;
      Mode mode;
      bool primary;
    };
    struct PendingFd {
      std::vector<std::string> lhs, rhs;
      Mode mode;
    };
    std::vector<PendingKey> keys;
    std::vector<PendingFd> fds;

    do {
      if (AcceptKeyword("PRIMARY")) {
        SQLNF_RETURN_NOT_OK(ExpectKeyword("KEY"));
        SQLNF_RETURN_NOT_OK(ExpectSymbol("("));
        SQLNF_ASSIGN_OR_RETURN(auto cols, ColumnList());
        keys.push_back({std::move(cols), Mode::kCertain, true});
      } else if (AcceptKeyword("UNIQUE")) {
        SQLNF_RETURN_NOT_OK(ExpectSymbol("("));
        SQLNF_ASSIGN_OR_RETURN(auto cols, ColumnList());
        keys.push_back({std::move(cols), Mode::kPossible, false});
      } else if (AcceptKeyword("CERTAIN") || AcceptKeyword("POSSIBLE")) {
        const Mode mode = tokens_[pos_ - 1].upper == "CERTAIN"
                              ? Mode::kCertain
                              : Mode::kPossible;
        if (AcceptKeyword("KEY")) {
          SQLNF_RETURN_NOT_OK(ExpectSymbol("("));
          SQLNF_ASSIGN_OR_RETURN(auto cols, ColumnList());
          keys.push_back({std::move(cols), mode, false});
        } else {
          SQLNF_RETURN_NOT_OK(ExpectKeyword("FD"));
          SQLNF_RETURN_NOT_OK(ExpectSymbol("("));
          PendingFd fd;
          fd.mode = mode;
          do {
            SQLNF_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier());
            fd.lhs.push_back(std::move(col));
          } while (AcceptSymbol(","));
          SQLNF_RETURN_NOT_OK(ExpectSymbol("->"));
          do {
            SQLNF_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier());
            fd.rhs.push_back(std::move(col));
          } while (AcceptSymbol(","));
          SQLNF_RETURN_NOT_OK(ExpectSymbol(")"));
          fds.push_back(std::move(fd));
        }
      } else {
        // Column definition: name TYPE [NOT NULL].
        SQLNF_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier());
        if (Peek().kind == TokenKind::kIdentifier &&
            (Peek().upper == "TEXT" || Peek().upper == "INTEGER" ||
             Peek().upper == "VARCHAR" || Peek().upper == "INT")) {
          ++pos_;  // type is declarative only
        }
        if (AcceptKeyword("NOT")) {
          SQLNF_RETURN_NOT_OK(ExpectKeyword("NULL"));
          not_null.push_back(col);
        }
        columns.push_back(std::move(col));
      }
    } while (AcceptSymbol(","));
    SQLNF_RETURN_NOT_OK(ExpectSymbol(")"));
    SQLNF_RETURN_NOT_OK(ExpectStatementEnd());

    // PRIMARY KEY columns are NOT NULL in SQL.
    for (const PendingKey& key : keys) {
      if (!key.primary) continue;
      for (const std::string& col : key.cols) not_null.push_back(col);
    }
    SQLNF_ASSIGN_OR_RETURN(TableSchema schema,
                           TableSchema::Make(name, columns, not_null));
    ConstraintSet sigma;
    for (const PendingKey& key : keys) {
      SQLNF_ASSIGN_OR_RETURN(AttributeSet attrs,
                             schema.ResolveAll(key.cols));
      sigma.AddKey({attrs, key.mode});
    }
    for (const PendingFd& fd : fds) {
      SQLNF_ASSIGN_OR_RETURN(AttributeSet lhs, schema.ResolveAll(fd.lhs));
      SQLNF_ASSIGN_OR_RETURN(AttributeSet rhs, schema.ResolveAll(fd.rhs));
      sigma.AddFd({lhs, rhs, fd.mode});
    }
    SQLNF_RETURN_NOT_OK(db_->CreateTable(schema, std::move(sigma)));
    QueryResult result;
    result.message = "created table " + name;
    return result;
  }

  Result<QueryResult> Insert() SQLNF_REQUIRES(writer_thread_role) {
    SQLNF_RETURN_NOT_OK(ExpectKeyword("INTO"));
    SQLNF_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier());
    SQLNF_RETURN_NOT_OK(ExpectKeyword("VALUES"));
    // The Database pulls one ( ... ) group per row and stores each as
    // it arrives. The statement end is checked before the last row is
    // handed over, so trailing garbage aborts the whole statement.
    bool last_row_given = false;
    SQLNF_ASSIGN_OR_RETURN(
        int inserted,
        db_->InsertRows(name, [&](Tuple* row) -> Result<bool> {
          if (last_row_given) return false;
          SQLNF_RETURN_NOT_OK(ExpectSymbol("("));
          std::vector<Value> values;
          do {
            SQLNF_ASSIGN_OR_RETURN(Value v, ExpectLiteral());
            values.push_back(std::move(v));
          } while (AcceptSymbol(","));
          SQLNF_RETURN_NOT_OK(ExpectSymbol(")"));
          if (!AcceptSymbol(",")) {
            SQLNF_RETURN_NOT_OK(ExpectStatementEnd());
            last_row_given = true;
          }
          *row = Tuple(std::move(values));
          return true;
        }));
    QueryResult result;
    result.affected = inserted;
    result.message = std::to_string(inserted) + " row(s) inserted";
    return result;
  }

  // One WHERE atom:
  //   col (= | <> | != | < | <= | > | >=) lit
  //   col BETWEEN lit AND lit              (the AND belongs to BETWEEN)
  //   col IN (lit [, lit]*)
  // `=`/`<>`/IN use marker equality (col = NULL matches exactly the ⊥
  // cells); ordered comparisons exclude ⊥ by definition
  // (engine/predicate.h). Columns stay names here — resolution happens
  // at bind time (BindWhere), against whichever storage the caller
  // resolved.
  Result<ParsedAtom> WhereAtom() {
    SQLNF_ASSIGN_OR_RETURN(NamedRef col, ExpectNamedRef());
    ParsedAtom atom;
    atom.col = std::move(col.name);
    atom.col_offset = col.offset;
    if (AcceptKeyword("BETWEEN")) {
      atom.atom_kind = ParsedAtom::Kind::kBetween;
      SQLNF_ASSIGN_OR_RETURN(atom.lo, ExpectLiteral());
      SQLNF_RETURN_NOT_OK(ExpectKeyword("AND"));
      SQLNF_ASSIGN_OR_RETURN(atom.hi, ExpectLiteral());
      return atom;
    }
    if (AcceptKeyword("IN")) {
      atom.atom_kind = ParsedAtom::Kind::kIn;
      SQLNF_RETURN_NOT_OK(ExpectSymbol("("));
      do {
        SQLNF_ASSIGN_OR_RETURN(Value v, ExpectLiteral());
        atom.list.push_back(std::move(v));
      } while (AcceptSymbol(","));
      SQLNF_RETURN_NOT_OK(ExpectSymbol(")"));
      return atom;
    }
    atom.atom_kind = ParsedAtom::Kind::kCompare;
    if (AcceptSymbol("=")) {
      atom.op = CompareOp::kEq;
    } else if (AcceptSymbol("<>") || AcceptSymbol("!=")) {
      atom.op = CompareOp::kNe;
    } else if (AcceptSymbol("<=")) {
      atom.op = CompareOp::kLe;
    } else if (AcceptSymbol("<")) {
      atom.op = CompareOp::kLt;
    } else if (AcceptSymbol(">=")) {
      atom.op = CompareOp::kGe;
    } else if (AcceptSymbol(">")) {
      atom.op = CompareOp::kGt;
    } else {
      return ParseErrorHere(
          "expected comparison operator, BETWEEN, or IN, got '" +
          Peek().text + "'");
    }
    SQLNF_ASSIGN_OR_RETURN(atom.value, ExpectLiteral());
    return atom;
  }

  // WHERE atom [AND atom]* [OR atom [AND atom]*]* → DNF, textual (AND
  // binds tighter than OR; no parenthesized grouping). No WHERE clause
  // yields an empty ParsedWhere, which binds to Predicate::True().
  Result<ParsedWhere> WhereClause() {
    ParsedWhere where;
    if (!AcceptKeyword("WHERE")) return where;
    do {
      std::vector<ParsedAtom> conj;
      do {
        SQLNF_ASSIGN_OR_RETURN(ParsedAtom atom, WhereAtom());
        conj.push_back(std::move(atom));
      } while (AcceptKeyword("AND"));
      where.disjuncts.push_back(std::move(conj));
    } while (AcceptKeyword("OR"));
    return where;
  }

  // SELECT after the keyword: projection, FROM, join chain, WHERE —
  // parse only, no storage access (shared by both execution paths).
  Result<ParsedSelect> ParseSelectStatement() {
    ParsedSelect ps;
    if (AcceptSymbol("*")) {
      ps.star = true;
    } else {
      do {
        SQLNF_ASSIGN_OR_RETURN(NamedRef col, ExpectNamedRef());
        ps.cols.push_back(std::move(col));
      } while (AcceptSymbol(","));
    }
    SQLNF_RETURN_NOT_OK(ExpectKeyword("FROM"));
    SQLNF_ASSIGN_OR_RETURN(NamedRef table, ExpectNamedRef());
    ps.tables.push_back(std::move(table));
    while (AcceptKeyword("NATURAL")) {
      SQLNF_RETURN_NOT_OK(ExpectKeyword("JOIN"));
      SQLNF_ASSIGN_OR_RETURN(NamedRef other, ExpectNamedRef());
      ps.tables.push_back(std::move(other));
    }
    SQLNF_ASSIGN_OR_RETURN(ps.where, WhereClause());
    SQLNF_RETURN_NOT_OK(ExpectStatementEnd());
    return ps;
  }

  // SHOW after the keyword (only SHOW TABLES exists).
  Status ParseShowStatement() {
    SQLNF_RETURN_NOT_OK(ExpectKeyword("TABLES"));
    return ExpectStatementEnd();
  }

  // DESCRIBE after the keyword: the table name.
  Result<NamedRef> ParseDescribeStatement() {
    SQLNF_ASSIGN_OR_RETURN(NamedRef table, ExpectNamedRef());
    SQLNF_RETURN_NOT_OK(ExpectStatementEnd());
    return table;
  }

  // ---- read-only statement binding, live (writer) side.

  Result<QueryResult> SelectLive(const ParsedSelect& ps)
      SQLNF_REQUIRES(writer_thread_role) {
    std::vector<TableRef> refs;
    refs.reserve(ps.tables.size());
    for (const NamedRef& t : ps.tables) {
      auto stored_or = db_->Find(t.name);
      if (!stored_or.ok()) {
        error_offset_ = static_cast<int>(t.offset);
        return stored_or.status();
      }
      refs.push_back({&(*stored_or)->schema(), &(*stored_or)->columns()});
    }
    return SelectCore(ps, refs, &error_offset_);
  }

  Result<QueryResult> SelectSnap(
      const ParsedSelect& ps,
      const std::map<std::string, TableSnapshot>& snaps) {
    std::vector<TableRef> refs;
    refs.reserve(ps.tables.size());
    for (const NamedRef& t : ps.tables) {
      auto it = snaps.find(t.name);
      if (it == snaps.end()) {
        error_offset_ = static_cast<int>(t.offset);
        return Status::NotFound("no table named '" + t.name + "'");
      }
      refs.push_back({&it->second.schema, it->second.columns.get()});
    }
    return SelectCore(ps, refs, &error_offset_);
  }

  Result<QueryResult> ShowLive() SQLNF_REQUIRES(writer_thread_role) {
    std::vector<std::pair<std::string, int>> tables;
    for (const std::string& name : db_->TableNames()) {
      auto stored = db_->Find(name);
      if (!stored.ok()) continue;  // raced drop cannot happen; defensive
      tables.emplace_back(name, (*stored)->num_rows());
    }
    return MakeShowResult(tables);
  }

  Result<QueryResult> DescribeLive(const NamedRef& table)
      SQLNF_REQUIRES(writer_thread_role) {
    auto stored_or = db_->Find(table.name);
    if (!stored_or.ok()) {
      error_offset_ = static_cast<int>(table.offset);
      return stored_or.status();
    }
    return MakeDescribeResult((*stored_or)->schema(),
                              (*stored_or)->sigma());
  }

  // ---- write statements (execute as they parse).

  Result<QueryResult> Update() SQLNF_REQUIRES(writer_thread_role) {
    SQLNF_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier());
    SQLNF_RETURN_NOT_OK(ExpectKeyword("SET"));
    SQLNF_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier());
    SQLNF_RETURN_NOT_OK(ExpectSymbol("="));
    SQLNF_ASSIGN_OR_RETURN(Value value, ExpectLiteral());
    SQLNF_ASSIGN_OR_RETURN(const StoredTable* stored, db_->Find(name));
    SQLNF_ASSIGN_OR_RETURN(AttributeId column,
                           stored->schema().FindAttribute(col));
    SQLNF_ASSIGN_OR_RETURN(ParsedWhere where, WhereClause());
    SQLNF_ASSIGN_OR_RETURN(
        Predicate conditions,
        BindWhere(where, stored->schema(), &error_offset_));
    SQLNF_RETURN_NOT_OK(ExpectStatementEnd());
    SQLNF_ASSIGN_OR_RETURN(int changed,
                           db_->Update(name, conditions, column, value));
    QueryResult result;
    result.affected = changed;
    result.message = std::to_string(changed) + " row(s) updated";
    return result;
  }

  Result<QueryResult> Delete() SQLNF_REQUIRES(writer_thread_role) {
    SQLNF_RETURN_NOT_OK(ExpectKeyword("FROM"));
    SQLNF_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier());
    SQLNF_ASSIGN_OR_RETURN(const StoredTable* stored, db_->Find(name));
    SQLNF_ASSIGN_OR_RETURN(ParsedWhere where, WhereClause());
    SQLNF_ASSIGN_OR_RETURN(
        Predicate conditions,
        BindWhere(where, stored->schema(), &error_offset_));
    SQLNF_RETURN_NOT_OK(ExpectStatementEnd());
    SQLNF_ASSIGN_OR_RETURN(int removed, db_->Delete(name, conditions));
    QueryResult result;
    result.affected = removed;
    result.message = std::to_string(removed) + " row(s) deleted";
    return result;
  }

  Result<QueryResult> Drop() SQLNF_REQUIRES(writer_thread_role) {
    SQLNF_RETURN_NOT_OK(ExpectKeyword("TABLE"));
    SQLNF_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier());
    SQLNF_RETURN_NOT_OK(ExpectStatementEnd());
    SQLNF_RETURN_NOT_OK(db_->DropTable(name));
    QueryResult result;
    result.message = "dropped table " + name;
    return result;
  }

  // VACUUM t: order-preserving dictionary compaction (dead codes
  // reclaimed, codes canonicalized — Database::CompactTable). Barred
  // inside a transaction.
  Result<QueryResult> Vacuum() SQLNF_REQUIRES(writer_thread_role) {
    SQLNF_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier());
    SQLNF_RETURN_NOT_OK(ExpectStatementEnd());
    SQLNF_ASSIGN_OR_RETURN(int retired, db_->CompactTable(name));
    QueryResult result;
    result.affected = retired;
    result.message = "vacuumed " + name + ": " + std::to_string(retired) +
                     " dictionary entries reclaimed";
    return result;
  }

  // BEGIN / COMMIT / ROLLBACK, each with an optional TRANSACTION or
  // WORK noise word. Statements between BEGIN and COMMIT take effect
  // (and become visible to snapshot readers) only at COMMIT; ROLLBACK
  // restores every touched table bit-identically.
  Result<QueryResult> Begin() SQLNF_REQUIRES(writer_thread_role) {
    AcceptKeyword("TRANSACTION") || AcceptKeyword("WORK");
    SQLNF_RETURN_NOT_OK(ExpectStatementEnd());
    SQLNF_RETURN_NOT_OK(db_->Begin());
    QueryResult result;
    result.message = "transaction started";
    return result;
  }

  Result<QueryResult> TxnEnd(bool commit) SQLNF_REQUIRES(writer_thread_role) {
    AcceptKeyword("TRANSACTION") || AcceptKeyword("WORK");
    SQLNF_RETURN_NOT_OK(ExpectStatementEnd());
    SQLNF_RETURN_NOT_OK(commit ? db_->Commit() : db_->Rollback());
    QueryResult result;
    result.message =
        commit ? "transaction committed" : "transaction rolled back";
    return result;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  Database* db_;
  int error_offset_ = -1;
};

}  // namespace

Result<QueryResult> SqlSession::Execute(std::string_view statement,
                                        int* error_offset) {
  int lex_offset = -1;
  auto tokens_or = Lex(statement, &lex_offset);
  if (!tokens_or.ok()) {
    if (error_offset != nullptr) *error_offset = lex_offset;
    return tokens_or.status();
  }
  Parser parser(std::move(*tokens_or), db_);
  Result<QueryResult> result = parser.ParseAndExecute();
  if (!result.ok() && error_offset != nullptr) {
    *error_offset = parser.error_offset();
  }
  return result;
}

Result<QueryResult> ExecuteReadOnly(
    const std::map<std::string, TableSnapshot>& snapshots,
    std::string_view statement, int* error_offset) {
  int lex_offset = -1;
  auto tokens_or = Lex(statement, &lex_offset);
  if (!tokens_or.ok()) {
    if (error_offset != nullptr) *error_offset = lex_offset;
    return tokens_or.status();
  }
  Parser parser(std::move(*tokens_or), /*db=*/nullptr);
  Result<QueryResult> result = parser.ParseAndExecuteReadOnly(snapshots);
  if (!result.ok() && error_offset != nullptr) {
    *error_offset = parser.error_offset();
  }
  return result;
}

namespace {

/// True when `statement` holds nothing but '--' line comments and
/// whitespace.
bool OnlyComments(std::string_view statement) {
  for (const std::string& line :
       SplitString(std::string(statement), '\n')) {
    std::string_view stripped = StripAsciiWhitespace(line);
    if (!stripped.empty() && !StartsWith(stripped, "--")) return false;
  }
  return true;
}

}  // namespace

std::vector<SqlStatement> SplitSqlStatements(std::string_view script) {
  std::vector<SqlStatement> statements;
  size_t start = 0;
  bool in_string = false;
  auto flush = [&](size_t end) {
    std::string_view piece = script.substr(start, end - start);
    if (!StripAsciiWhitespace(piece).empty() && !OnlyComments(piece)) {
      statements.push_back({piece, start});
    }
    start = end + 1;
  };
  for (size_t i = 0; i < script.size(); ++i) {
    const char c = script[i];
    // '--' line comments outside string literals run to end of line;
    // their content — apostrophes and semicolons included — must not
    // affect splitting. The slices keep the comment text (the lexer
    // skips it), preserving script byte offsets.
    if (!in_string && c == '-' && i + 1 < script.size() &&
        script[i + 1] == '-') {
      while (i < script.size() && script[i] != '\n') ++i;
      continue;
    }
    if (c == '\'') in_string = !in_string;
    if (c == ';' && !in_string) flush(i);
  }
  flush(script.size());
  return statements;
}

bool StatementIsReadOnly(std::string_view statement) {
  size_t i = 0;
  while (i < statement.size()) {
    const char c = statement[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '-' && i + 1 < statement.size() && statement[i + 1] == '-') {
      while (i < statement.size() && statement[i] != '\n') ++i;
      continue;
    }
    break;
  }
  std::string word;
  while (i < statement.size() &&
         (std::isalnum(static_cast<unsigned char>(statement[i])) ||
          statement[i] == '_')) {
    word += static_cast<char>(
        std::toupper(static_cast<unsigned char>(statement[i])));
    ++i;
  }
  return word == "SELECT" || word == "SHOW" || word == "DESCRIBE";
}

}  // namespace sqlnf
