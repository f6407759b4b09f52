// The WriterThread phantom capability.
//
// The engine's concurrency contract (engine/catalog.h) allows any
// number of reader threads on the snapshot path (GetSnapshot /
// SnapshotAll, then ExecuteReadOnly or SelectRowsEncoded on the
// immutable columns) concurrently with exactly ONE writer thread
// driving the mutating entry points. No mutex expresses "this method
// belongs to the writer thread" — Database::mu_ serializes individual
// calls, but two threads interleaving Insert statements would still be
// a contract breach (each would also read live state lock-free via
// Find between its statements).
//
// writer_thread_role encodes that discipline as a Clang capability:
// every writer-thread-only entry point — Database mutators and live
// accessors, enforcer index mutation, transactions, SQL execution — is
// annotated SQLNF_REQUIRES(writer_thread_role), making it a
// compile-time error (-Wthread-safety) to reach one from a context
// that never established a WriterScope. The snapshot read path needs
// no role, so reader code simply cannot call a mutator.
//
// WriterScope is a zero-cost assertion, not a lock: entering one says
// "this scope IS the single writer thread". Establish it once at the
// top of the thread that owns writes (a test body, a benchmark's
// writer loop, the CLI main) — never inside a lambda handed to other
// threads unless that lambda is the writer.

#ifndef SQLNF_ENGINE_WRITER_ROLE_H_
#define SQLNF_ENGINE_WRITER_ROLE_H_

#include "sqlnf/util/mutex.h"
#include "sqlnf/util/thread_annotations.h"

namespace sqlnf {

/// The engine-wide WriterThread capability (phantom; no runtime state).
inline ThreadRole writer_thread_role;

/// Scoped claim of the writer role for the current thread.
class SQLNF_SCOPED_CAPABILITY WriterScope {
 public:
  WriterScope() SQLNF_ACQUIRE(writer_thread_role) {}
  ~WriterScope() SQLNF_RELEASE() {}

  WriterScope(const WriterScope&) = delete;
  WriterScope& operator=(const WriterScope&) = delete;
};

}  // namespace sqlnf

#endif  // SQLNF_ENGINE_WRITER_ROLE_H_
