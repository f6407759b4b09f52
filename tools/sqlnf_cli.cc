// sqlnf — command-line front end for the library.
//
//   sqlnf check <design-file>
//       Normal-form report: BCNF/RFNF, SQL-BCNF/VRNF, violations, and a
//       construction-lemma witness instance for the first violation.
//   sqlnf normalize <design-file>
//       Algorithm 3 (after NormalizeToTotal): decomposition, dependency
//       preservation, and CREATE TABLE statements.
//   sqlnf implies <design-file> '<constraint>'
//       Decide Σ ⊨ φ; prints an axiomatic proof (small schemas) or a
//       counterexample instance.
//   sqlnf mine <csv-file>
//       Discover keys and FDs from data; classify (nn/p/c/t/λ).
//   sqlnf advise <csv-file>
//       mine + normalize + DDL, end to end.
//   sqlnf validate <csv-file> '<constraints>' [--threads N]
//       Validate a constraint set against the data with the columnar
//       dictionary-encoded kernels; prints a witness per violation.
//   sqlnf query <csv-file> '<sql>'
//       Load a CSV into a table named after the file stem and run SQL
//       against it on the columnar executor.
//   sqlnf shell [script.sql]
//       Run SQL (with the CERTAIN KEY / CERTAIN FD extensions, enforced
//       on every write) from a script file or interactively from stdin.
//   sqlnf serve [--port P] [--workers N] [--threads N] [csv...]
//       HTTP front door: load the CSVs and expose /query /validate
//       /discover /normalize /health as JSON endpoints (net/service.h).
//   sqlnf corpus <name> <out.csv>
//       Write a built-in corpus (contractor, uci_adult, ...) to a CSV.
//
// query, validate and shell are thin renderers over the same session
// layer the server uses (engine/session.h): one execution pipeline,
// two transports.
//
// Design file format: see sqlnf/constraints/serialize.h.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "sqlnf/constraints/parser.h"
#include "sqlnf/constraints/satisfies.h"
#include "sqlnf/constraints/serialize.h"
#include "sqlnf/core/encoded_table.h"
#include "sqlnf/decomposition/dependency_preservation.h"
#include "sqlnf/decomposition/lossless.h"
#include "sqlnf/decomposition/report.h"
#include "sqlnf/decomposition/vrnf_decompose.h"
#include "sqlnf/datagen/lmrp.h"
#include "sqlnf/datagen/uci.h"
#include "sqlnf/discovery/discover.h"
#include "sqlnf/engine/csv.h"
#include "sqlnf/engine/ddl.h"
#include "sqlnf/engine/session.h"
#include "sqlnf/engine/validate.h"
#include "sqlnf/net/server.h"
#include "sqlnf/net/service.h"
#include "sqlnf/normalform/construction.h"
#include "sqlnf/normalform/normal_forms.h"
#include "sqlnf/reasoning/axioms.h"
#include "sqlnf/reasoning/implication.h"

namespace sqlnf {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Failure with a script position: "error: ParseError: ... (statement
/// 2, line 3:14)" — the detail is assembled by the session layer.
int FailDetail(const ErrorDetail& detail) {
  std::fprintf(stderr, "error: %s\n", detail.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: sqlnf <command> <args>\n"
      "  check <design-file>                normal-form report\n"
      "  normalize <design-file>            Algorithm 3 + DDL\n"
      "  implies <design-file> <constraint> decide implication\n"
      "  mine <csv-file>                    discover constraints\n"
      "  advise <csv-file>                  mine + normalize + DDL\n"
      "  validate <csv-file> <constraints> [--threads N]\n"
      "                                     columnar constraint check\n"
      "  query <csv-file> <sql>             run SQL against a CSV\n"
      "  shell [script.sql]                 SQL with enforced c-keys/FDs\n"
      "  serve [--port P] [--workers N] [--threads N] [csv...]\n"
      "                                     HTTP API (/query /validate\n"
      "                                     /discover /normalize /health)\n"
      "  corpus <name> <out.csv>            write a built-in corpus\n"
      "                                     (contractor, uci_breast,\n"
      "                                     uci_adult, uci_hepatitis)\n");
  return 2;
}

/// Writes each statement's QueryResult::ToString() to stdout, in order.
void PrintStatements(const ResultSet& rs) {
  for (const QueryResult& result : rs.statements) {
    std::printf("%s\n", result.ToString().c_str());
  }
}

int CmdShell(const std::string& path) {
  Database db;
  SessionRegistry registry(&db);
  // One user, so a transaction may stay open from one script (or
  // interactive chunk) to the next; reads inside it take the writer
  // path and see its uncommitted rows.
  SessionOptions options;
  options.allow_open_transaction = true;
  Session session(&registry, options);
  if (!path.empty()) {
    std::ifstream in(path);
    if (!in) return Fail(Status::IoError("cannot open " + path));
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const ResultSet rs = session.Execute(buffer.str());
    if (!rs.ok()) return Fail(rs.status);
    PrintStatements(rs);
    return 0;
  }
  // Interactive: one statement per ';'-terminated chunk from stdin.
  std::string buffer;
  std::string line;
  std::printf("sqlnf shell — SQL with CERTAIN KEY / CERTAIN FD "
              "enforcement. Ctrl-D to exit.\n> ");
  while (std::getline(std::cin, line)) {
    buffer += line + "\n";
    if (line.find(';') != std::string::npos) {
      const ResultSet rs = session.Execute(buffer);
      if (!rs.ok()) {
        std::printf("error: %s\n", rs.status.ToString().c_str());
      } else {
        PrintStatements(rs);
      }
      buffer.clear();
    }
    std::printf("> ");
  }
  return 0;
}

int CmdCheck(const std::string& path) {
  auto design = ReadDesignFile(path);
  if (!design.ok()) return Fail(design.status());
  std::printf("%s\n\n", design->ToString().c_str());

  auto violation = FindBcnfViolation(*design);
  std::printf("BCNF / RFNF (Theorems 6, 9): %s\n",
              violation ? "NO" : "yes");
  if (violation) {
    std::printf("  violation: %s\n",
                violation->ToString(design->table).c_str());
    auto witness = MakeRedundancyWitness(*design);
    if (witness.ok()) {
      std::printf(
          "  witness instance (redundant at row %d, column %s):\n%s",
          witness->position.row,
          design->table.attribute_name(witness->position.column).c_str(),
          witness->instance.ToString().c_str());
    }
  }
  auto sql_bcnf = IsSqlBcnf(*design);
  if (sql_bcnf.ok()) {
    std::printf("SQL-BCNF / VRNF (Theorems 14, 15): %s\n",
                *sql_bcnf ? "yes" : "NO");
  } else {
    std::printf("SQL-BCNF / VRNF: n/a (%s)\n",
                sql_bcnf.status().message().c_str());
  }
  return 0;
}

int CmdNormalize(const std::string& path) {
  auto design = ReadDesignFile(path);
  if (!design.ok()) return Fail(design.status());
  auto total = NormalizeToTotal(design->table, design->sigma);
  if (!total.ok()) return Fail(total.status());
  SchemaDesign normalized{design->table, std::move(total).value()};

  auto result = VrnfDecompose(normalized);
  if (!result.ok()) return Fail(result.status());
  std::printf("decomposition: %s\n",
              result->decomposition.ToString(design->table).c_str());
  for (const VrnfStep& step : result->steps) {
    std::printf("  %s\n", step.ToString(design->table).c_str());
  }
  auto preserving =
      IsDependencyPreserving(normalized, result->decomposition);
  if (preserving.ok()) {
    std::printf("dependency preserving: %s\n",
                *preserving ? "yes" : "NO (cross-table checks needed)");
  }
  std::printf("\n%s", EmitDecompositionDdl(normalized, *result).c_str());
  return 0;
}

int CmdImplies(const std::string& path, const std::string& constraint_text) {
  auto design = ReadDesignFile(path);
  if (!design.ok()) return Fail(design.status());
  auto constraint = ParseConstraint(design->table, constraint_text);
  if (!constraint.ok()) return Fail(constraint.status());

  Implication imp(design->table, design->sigma);
  bool implied = imp.Implies(*constraint);
  std::printf("Sigma %s %s\n", implied ? "implies" : "does NOT imply",
              ConstraintToString(*constraint, design->table).c_str());
  if (implied) {
    auto engine = AxiomEngine::Saturate(design->table, design->sigma);
    if (engine.ok()) {
      auto proof = engine->Explain(*constraint);
      if (proof.ok()) std::printf("\nproof:\n%s", proof->c_str());
    } else {
      std::printf("(schema too large for an axiomatic proof print)\n");
    }
  } else {
    auto witness = CounterExample(*design, *constraint);
    if (witness.ok()) {
      std::printf("counterexample instance over (T, T_S, Sigma):\n%s",
                  witness->ToString().c_str());
    }
  }
  return 0;
}

int CmdMine(const std::string& path) {
  auto table = ReadCsvFile(path);
  if (!table.ok()) return Fail(table.status());
  DiscoveryOptions options;
  options.hitting.max_size = 5;
  auto mined = DiscoverConstraints(*table, options);
  if (!mined.ok()) return Fail(mined.status());

  TableSchema schema = table->schema();
  (void)schema.SetNfs(mined->null_free_columns);
  std::printf("table: %d rows x %d columns, null-free columns %s\n\n",
              table->num_rows(), table->num_columns(),
              schema.FormatSet(schema.nfs()).c_str());
  auto print_fds = [&](const char* label,
                       const std::vector<FunctionalDependency>& fds) {
    std::printf("%s (%zu):\n", label, fds.size());
    for (const auto& fd : fds) {
      std::printf("  %s\n", fd.ToString(schema).c_str());
    }
  };
  print_fds("certain FDs", mined->c_fds);
  print_fds("possible FDs", mined->p_fds);
  std::printf("certain keys (%zu):\n", mined->c_keys.size());
  for (const auto& key : mined->c_keys) {
    std::printf("  %s\n", key.ToString(schema).c_str());
  }
  std::printf("possible keys (%zu):\n", mined->p_keys.size());
  for (const auto& key : mined->p_keys) {
    std::printf("  %s\n", key.ToString(schema).c_str());
  }
  FdClassification cls = ClassifyDiscovered(*table, *mined);
  std::printf(
      "\nclassification: nn=%d p=%d c=%d total=%d lambda=%d\n",
      cls.nn_count, cls.p_count, cls.c_count, cls.t_count,
      cls.lambda_count);
  return 0;
}

int CmdValidate(const std::string& path, const std::string& sigma_text,
                int threads) {
  auto table = ReadCsvFile(path);
  if (!table.ok()) return Fail(table.status());
  auto sigma = ParseConstraintSet(table->schema(), sigma_text);
  if (!sigma.ok()) return Fail(sigma.status());

  // One dictionary encoding over every mentioned column, shared by all
  // constraints.
  AttributeSet mentioned;
  for (const auto& fd : sigma->fds()) {
    mentioned = mentioned.Union(fd.lhs).Union(fd.rhs);
  }
  for (const auto& key : sigma->keys()) {
    mentioned = mentioned.Union(key.attrs);
  }
  const EncodedTable enc(*table, mentioned);

  // The shared session-layer core; RenderText() is the historical
  // stdout of this command, byte for byte (golden-pinned).
  const ValidationReport report =
      ValidateConstraints(table->schema(), enc, *sigma, threads);
  std::fputs(report.RenderText().c_str(), stdout);
  return report.violated == 0 ? 0 : 1;
}

/// File stem: data/contractor.csv → contractor.
std::string TableStem(const std::string& path) {
  std::string stem = path;
  const size_t slash = stem.find_last_of("/\\");
  if (slash != std::string::npos) stem = stem.substr(slash + 1);
  const size_t dot = stem.find_last_of('.');
  if (dot != std::string::npos && dot > 0) stem = stem.substr(0, dot);
  return stem;
}

int CmdQuery(const std::string& path, const std::string& sql) {
  const std::string stem = TableStem(path);
  CsvOptions options;
  options.table_name = stem;
  auto table = ReadCsvFile(path, options);
  if (!table.ok()) return Fail(table.status());

  Database db;
  {
    WriterScope writer;  // ingest is a write; scoped to just that
    Status ingested = db.IngestTable(*table, ConstraintSet{});
    if (!ingested.ok()) return Fail(ingested);
  }
  std::printf("loaded '%s': %d rows x %d columns\n\n", stem.c_str(),
              table->num_rows(), table->num_columns());

  // The same session pipeline the HTTP server runs; the CLI is just a
  // text renderer over its ResultSet.
  SessionRegistry registry(&db);
  Session session(&registry);
  const ResultSet rs = session.Execute(sql);
  if (!rs.ok()) return FailDetail(rs.error);
  PrintStatements(rs);
  return 0;
}

int CmdAdvise(const std::string& path) {
  auto table = ReadCsvFile(path);
  if (!table.ok()) return Fail(table.status());
  DiscoveryOptions options;
  options.hitting.max_size = 4;
  auto mined = DiscoverConstraints(*table, options);
  if (!mined.ok()) return Fail(mined.status());

  TableSchema schema = table->schema();
  (void)schema.SetNfs(mined->null_free_columns);
  FdClassification cls = ClassifyDiscovered(*table, *mined);
  ConstraintSet sigma;
  for (const auto& fd : cls.lambda_fds) sigma.AddUniqueFd(fd);
  for (const auto& key : mined->c_keys) sigma.AddUniqueKey(key);
  SchemaDesign design{schema, sigma};
  std::printf("mined design:\n%s\n", FormatDesign(design).c_str());

  if (sigma.fds().empty()) {
    std::printf("no lambda-FDs found; nothing to normalize.\n");
    return 0;
  }
  auto result = VrnfDecompose(design);
  if (!result.ok()) return Fail(result.status());
  auto report = ReportDecomposition(*table, result->decomposition);
  if (report.ok()) {
    std::printf("%s\n", report->ToString(schema).c_str());
  }
  auto lossless = IsLosslessForInstance(*table, result->decomposition);
  if (lossless.ok()) {
    std::printf("lossless on the input data: %s\n\n",
                *lossless ? "yes" : "NO");
  }
  std::printf("%s", EmitDecompositionDdl(design, *result).c_str());
  return 0;
}

int CmdServe(const std::vector<std::string>& args) {
  int port = 8080;
  int workers = 4;
  int threads = 1;
  std::vector<std::string> csvs;
  for (size_t i = 0; i < args.size(); ++i) {
    auto int_flag = [&](const char* name, int* out) {
      if (args[i] != name) return false;
      if (i + 1 >= args.size()) return true;  // value missing: keep default
      *out = std::atoi(args[++i].c_str());
      return true;
    };
    if (int_flag("--port", &port) || int_flag("--workers", &workers) ||
        int_flag("--threads", &threads)) {
      continue;
    }
    csvs.push_back(args[i]);
  }

  Database db;
  {
    WriterScope writer;
    for (const std::string& path : csvs) {
      CsvOptions options;
      options.table_name = TableStem(path);
      auto table = ReadCsvFile(path, options);
      if (!table.ok()) return Fail(table.status());
      Status ingested = db.IngestTable(*table, ConstraintSet{});
      if (!ingested.ok()) return Fail(ingested);
      std::printf("loaded '%s': %d rows x %d columns\n",
                  options.table_name.c_str(), table->num_rows(),
                  table->num_columns());
    }
  }

  SessionRegistry registry(&db);
  SqlnfServiceOptions service_options;
  service_options.threads = threads < 1 ? 1 : threads;
  SqlnfService service(&registry, service_options);

  // Block the shutdown signals BEFORE spawning server threads (they
  // inherit the mask), then wait for one synchronously — no handler,
  // no flag race.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  HttpServerOptions server_options;
  server_options.port = port;
  server_options.workers = workers < 1 ? 1 : workers;
  HttpServer server(
      [&service](const HttpRequest& request) {
        return service.Handle(request);
      },
      server_options);
  Status started = server.Start();
  if (!started.ok()) return Fail(started);
  std::printf("serving on http://127.0.0.1:%d (%d workers)\n",
              server.port(), server_options.workers);
  std::fflush(stdout);

  int received = 0;
  sigwait(&signals, &received);
  std::printf("shutting down\n");
  server.Stop();
  return 0;
}

int CmdCorpus(const std::string& name, const std::string& out_path) {
  Result<Table> table = Status::Invalid("");
  if (name == "contractor") {
    table = Contractor();
  } else if (name == "uci_breast") {
    table = UciBreastCancerShaped();
  } else if (name == "uci_adult") {
    table = UciAdultShaped();
  } else if (name == "uci_hepatitis") {
    table = UciHepatitisShaped();
  } else {
    return Fail(Status::Invalid(
        "unknown corpus '" + name +
        "' (try contractor, uci_breast, uci_adult, uci_hepatitis)"));
  }
  if (!table.ok()) return Fail(table.status());
  Status written = WriteCsvFile(*table, out_path);
  if (!written.ok()) return Fail(written);
  std::printf("wrote '%s': %d rows x %d columns\n", out_path.c_str(),
              table->num_rows(), table->num_columns());
  return 0;
}

}  // namespace
}  // namespace sqlnf

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "shell") {
    return sqlnf::CmdShell(argc >= 3 ? argv[2] : "");
  }
  if (argc >= 2 && std::string(argv[1]) == "serve") {
    return sqlnf::CmdServe(
        std::vector<std::string>(argv + 2, argv + argc));
  }
  if (argc < 3) return sqlnf::Usage();
  const std::string command = argv[1];
  const std::string arg = argv[2];
  if (command == "check") return sqlnf::CmdCheck(arg);
  if (command == "normalize") return sqlnf::CmdNormalize(arg);
  if (command == "implies") {
    if (argc < 4) return sqlnf::Usage();
    return sqlnf::CmdImplies(arg, argv[3]);
  }
  if (command == "mine") return sqlnf::CmdMine(arg);
  if (command == "advise") return sqlnf::CmdAdvise(arg);
  if (command == "query") {
    if (argc < 4) return sqlnf::Usage();
    return sqlnf::CmdQuery(arg, argv[3]);
  }
  if (command == "validate") {
    if (argc < 4) return sqlnf::Usage();
    int threads = 1;
    for (int i = 4; i < argc; ++i) {
      if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
        threads = std::atoi(argv[++i]);
        if (threads < 1) threads = 1;
      }
    }
    return sqlnf::CmdValidate(arg, argv[3], threads);
  }
  if (command == "corpus") {
    if (argc < 4) return sqlnf::Usage();
    return sqlnf::CmdCorpus(arg, argv[3]);
  }
  return sqlnf::Usage();
}
