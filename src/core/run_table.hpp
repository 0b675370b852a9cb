#pragma once
// Bounded, thread-safe table of run records — the control plane's memory of
// every workflow invocation. PR-1's orchestrator kept runs in a bare map
// that grew without bound; long-lived serving scenarios (cloudsim soak
// runs, multi-tenant traffic) leaked one record per run forever. The
// RunTable owns the records instead and garbage-collects them under a
// configurable retention policy:
//
//   - only *terminal* runs (completed / failed / cancelled) are ever
//     evicted; a run that is still pending or running is pinned no matter
//     how far over budget the table is,
//   - capacity bound: at most `max_terminal_runs` terminal records are
//     retained, evicting the least-recently-used first (a find() refreshes
//     recency, so recently-queried results survive longest),
//   - age bound: a terminal record older than `terminal_ttl_seconds` is
//     evicted on the next table operation (lookups of an expired record
//     miss, exactly as if it had already been swept).
//
// Eviction removes the table's reference only. Run records are shared
// (std::shared_ptr<api::RunState>), so an api::RunHandle held by a client
// keeps answering poll()/result() after the record ages out of the table —
// only id-based queries (getRun / listRuns / runHandle) return NOT_FOUND.

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <vector>

#include "api/run_handle.hpp"
#include "common/thread_safety.hpp"

namespace qon::core {

/// Garbage-collection knobs for terminal run records. In-flight runs are
/// never subject to either bound.
struct RunRetentionPolicy {
  /// Max terminal records retained; LRU-evicted beyond this. 0 = unlimited.
  std::size_t max_terminal_runs = 1024;
  /// Terminal records older than this are evicted lazily on the next table
  /// operation. 0 = no age bound.
  double terminal_ttl_seconds = 0.0;
  /// Clock used for TTL accounting, in seconds. Defaults to the process
  /// steady clock; tests inject a fake to make TTL eviction deterministic.
  std::function<double()> clock;
};

/// Thread-safe owner of run records with retention-policy GC. One internal
/// mutex guards the table structure; the records themselves carry their own
/// locks (api::RunState::mutex), so table operations never block on an
/// executor that holds a record lock.
class RunTable {
 public:
  explicit RunTable(RunRetentionPolicy policy = {});

  /// Assigns the next run id, stamps it into the record and inserts it as
  /// in-flight. Also opportunistically sweeps expired terminal records.
  /// Precondition: `state` is not yet shared with other threads (the id is
  /// stored without taking the record's lock).
  api::RunId insert(const std::shared_ptr<api::RunState>& state);

  /// Records that a run reached a terminal state, making it eligible for
  /// GC, then enforces both retention bounds. Unknown ids and repeated
  /// calls are ignored. Safe to call while holding the record's own lock —
  /// the executor does exactly that, so that a client observing a terminal
  /// status is guaranteed the table already treats the run as terminal.
  void mark_terminal(api::RunId id);

  /// Looks up a record. Touches LRU recency for terminal records; a record
  /// past its TTL is evicted and reported as absent (nullptr).
  std::shared_ptr<api::RunState> find(api::RunId id);

  /// Removes a record outright regardless of state (used to retract a run
  /// whose executor submission was rejected). Does not count as an
  /// eviction. Returns false for unknown ids.
  bool erase(api::RunId id);

  /// Evicts every terminal record past its TTL; returns how many.
  std::size_t sweep();

  /// Records with id > `after`, in ascending run-id order — the pagination
  /// primitive behind listRuns. The table is bounded, so the full tail is
  /// cheap to snapshot; callers filter and page over it.
  std::vector<std::shared_ptr<api::RunState>> list_after(api::RunId after) const;

  std::size_t size() const;
  std::size_t terminal_count() const;
  /// Total records evicted by policy since construction (not erase()).
  std::uint64_t evictions() const;
  const RunRetentionPolicy& policy() const { return policy_; }

 private:
  struct Entry {
    std::shared_ptr<api::RunState> state;
    bool terminal = false;
    double terminal_at = 0.0;              ///< policy clock at mark_terminal
    std::list<api::RunId>::iterator lru;   ///< valid iff terminal
  };

  bool expired_locked(const Entry& entry, double now) const REQUIRES(mutex_);
  void evict_locked(std::map<api::RunId, Entry>::iterator it) REQUIRES(mutex_);
  std::size_t enforce_locked() REQUIRES(mutex_);

  RunRetentionPolicy policy_;

  mutable Mutex mutex_{LockRank::kRunTable, "RunTable::mutex_"};
  std::map<api::RunId, Entry> entries_ GUARDED_BY(mutex_);
  /// Terminal runs, least recently used first.
  std::list<api::RunId> lru_ GUARDED_BY(mutex_);
  api::RunId next_id_ GUARDED_BY(mutex_) = 1;
  std::uint64_t evictions_ GUARDED_BY(mutex_) = 0;
};

}  // namespace qon::core
