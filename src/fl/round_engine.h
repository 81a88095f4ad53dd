// Unified parallel round engine. Every FL algorithm in this codebase is a
// cross-silo round: silos compute local contributions independently, and
// the server reduces them. The engine owns that structure once — a silo-
// actor scheduler on a self-scheduling pool plus the deterministic reduce —
// so trainers only register their per-silo LocalWork callback.
//
// Determinism contract: the engine never hands callbacks a shared RNG.
// Algorithms draw all randomness from Rng::Fork(round, silo, user)
// substreams (pure functions of the seed and counters) and the engine
// reduces silo outputs in silo order, so a run on N threads is bitwise
// identical to a serial run. Thread count is purely a performance knob
// (FlConfig::num_threads / ULDP_THREADS).
//
// The engine also owns the asynchronous staleness-bounded round mode
// (FlConfig::async_rounds): silo deltas are applied as they land, bounded
// by FlConfig::max_staleness and discounted by 1/(1 + staleness), instead
// of barrier-waiting on the slowest silo. With max_staleness = 0 and a
// full buffer the async path degenerates to the synchronous barrier and
// is bitwise identical to RunRound; with an injected arrival schedule any
// async configuration is fully deterministic (tests rely on both).

#ifndef ULDP_FL_ROUND_ENGINE_H_
#define ULDP_FL_ROUND_ENGINE_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "nn/model.h"
#include "obs/metrics.h"

namespace uldp {

struct FlConfig;
struct SessionState;

struct RoundEngineConfig {
  /// <= 0 resolves via ThreadPool::DefaultThreadCount().
  int num_threads = 0;
  /// Route the silo-delta reduce through the secure-aggregation simulation
  /// (pairwise-masked fixed-point sums) instead of a plain sum.
  bool secure_aggregation = false;
};

/// Engine settings carried by the shared FL hyper-parameter block.
RoundEngineConfig EngineConfigFrom(const FlConfig& config);

/// Async-mode knobs (see FlConfig::async_rounds for semantics).
struct AsyncOptions {
  int max_staleness = 0;
  /// Arrivals per server step; <= 0 resolves to num_silos.
  int buffer_size = 0;
  /// Test hook: when non-empty, silo tasks "arrive" in exactly this order
  /// (each entry names the silo whose in-flight task completes next) and
  /// everything runs serially on the caller — a fixed arrival schedule
  /// makes an async run fully deterministic. Empty = real completion
  /// order on worker threads.
  std::vector<int> arrival_schedule;
  /// When set, the engine's aggregator binds to this session (fl/session.h):
  /// it adopts the session's round counter and cumulative stats at
  /// StartAsync and mirrors them back after every flush — StepAsync then
  /// resumes at session->round, which is how checkpoint-resume continues a
  /// run bitwise-identically. Not owned; must outlive async mode.
  SessionState* session = nullptr;
};

/// Async-mode settings carried by the shared FL hyper-parameter block.
AsyncOptions AsyncOptionsFrom(const FlConfig& config);

struct AsyncStats {
  /// Updates applied (after discounting), dropped for staleness, and
  /// server steps flushed.
  int64_t applied = 0;
  int64_t rejected = 0;
  int64_t steps = 0;
  /// Accepted offers later discarded because their silo was evicted
  /// before the flush (elastic membership only).
  int64_t dropped = 0;
  /// Largest accepted staleness.
  int max_staleness_seen = 0;
};

/// Staleness discount: an update computed `staleness` versions ago is
/// scaled by 1 / (1 + staleness) before aggregation (FedBuff-style
/// polynomial discounting). Exactly 1 at staleness 0.
double StalenessDiscount(int staleness);

/// The staleness-bounded buffered update rule, transport-agnostic: both
/// the in-process async engine and the net-layer async round server feed
/// arrivals into one of these. Not thread-safe — callers serialize access.
class AsyncAggregator {
 public:
  AsyncAggregator(int num_silos, int max_staleness, int buffer_size);

  /// Server version = flushed steps so far.
  int version() const { return version_; }
  int buffer_size() const { return buffer_size_; }
  int max_staleness() const { return max_staleness_; }
  int buffered() const { return static_cast<int>(entries_.size()); }

  /// Offers one silo update computed against version `pull_version`.
  /// Returns the staleness it was accepted at, or -1 when rejected for
  /// exceeding max_staleness (the caller re-dispatches the silo against
  /// the current model). Accepted deltas are discounted in place.
  int Offer(int silo, int pull_version, Vec delta);

  bool ReadyToFlush() const {
    return static_cast<int>(entries_.size()) >= buffer_size_;
  }

  /// Applies one server step: reduces the buffered (already discounted)
  /// deltas in (pull_version, silo) order — so the reduce is a pure
  /// function of the buffer contents, never of arrival order — and
  /// advances the version. With max_staleness = 0 and buffer = num_silos
  /// the entry order is exactly silo order and the reduce is bitwise
  /// identical to the synchronous engine's AggregateDeltas call.
  Vec Flush(bool secure, uint64_t round_tag, ThreadPool* pool);

  const AsyncStats& stats() const { return stats_; }

  /// Binds this aggregator to a session (fl/session.h): the version and
  /// cumulative stats are ADOPTED from the session now (resume), and
  /// mirrored back after every Flush/DropSilo. Pass nullptr to unbind.
  /// Unbound aggregators behave exactly as before.
  void BindSession(SessionState* session);

  /// Discards any buffered entries from `silo` (eviction/leave): they
  /// count as `dropped`, not un-applied — `applied` keeps meaning
  /// "offers accepted".
  void DropSilo(int silo);

  /// Elastic membership shrinks/grows the flush threshold with the active
  /// population; clamped to [1, num_silos].
  void SetBufferSize(int buffer_size);

 private:
  /// Mirrors version + stats into the bound session (no-op unbound).
  void SyncSession();

  struct Entry {
    int pull_version;
    int silo;
    Vec delta;
  };
  int num_silos_;
  int max_staleness_;
  int buffer_size_;
  int version_ = 0;
  std::vector<Entry> entries_;
  /// Authoritative counters (serialized into sessions). The registry
  /// metrics below mirror them so one snapshot reports async health next
  /// to every other subsystem; stats() stays the exact per-aggregator
  /// read.
  AsyncStats stats_;
  SessionState* session_ = nullptr;
  obs::Counter applied_metric_{"fl.async.applied"};
  obs::Counter rejected_metric_{"fl.async.rejected"};
  obs::Counter dropped_metric_{"fl.async.dropped"};
  obs::Counter steps_metric_{"fl.async.steps"};
  obs::Gauge max_staleness_metric_{"fl.async.max_staleness_seen",
                                   obs::Gauge::Agg::kMax};
};

/// Schedules per-silo round work across threads and reduces the results.
/// One engine instance per trainer; it owns a small pool of model clones
/// (one per concurrently running silo task — models carry scratch state,
/// so two in-flight tasks must not share one, but a silo task sets all
/// parameters before use, so clones are reusable across silos and rounds).
class RoundEngine {
 public:
  /// Per-silo local work for one round. `model`'s parameters are set to
  /// the round's global parameters before the call; the callback fills
  /// `delta` (preallocated to the global size, zeroed) with the silo's
  /// already-weighted, already-noised contribution. Runs concurrently
  /// across silos — touch only silo-local state and forked RNGs.
  using LocalWork = std::function<Status(int silo, Model& model, Vec& delta)>;

  /// Async local work for one pulled model version. `snapshot` holds the
  /// version-`version` global parameters; `model`'s parameters are set to
  /// the snapshot before the call; the callback fills `delta` (preallocated
  /// to the global size, zeroed) with the silo's clipped, weighted, noised
  /// contribution. All randomness must come from Rng::Fork(version, silo,
  /// user) substreams so a task's content depends only on (version, silo),
  /// never on scheduling.
  using AsyncLocalWork = std::function<Status(
      int version, int silo, const Vec& snapshot, Model& model, Vec& delta)>;

  RoundEngine(const Model& model, int num_silos, RoundEngineConfig config);
  ~RoundEngine();

  /// Runs `work` for every silo on the pool and returns the reduced total
  /// (plain or secure-aggregated sum over silos, keyed by `round`).
  Result<Vec> RunRound(int round, const Vec& global, const LocalWork& work);

  /// Runs `work` for every silo without the reduce step — for algorithms
  /// with a custom server-side reduce (e.g. Protocol 1's encrypted
  /// weighting). Deltas land in `silo_deltas` (resized to num_silos);
  /// pass nullptr when the algorithm stores its results elsewhere — the
  /// callback then receives an empty scratch Vec it may ignore.
  Status RunSilos(const Vec& global, const LocalWork& work,
                  std::vector<Vec>* silo_deltas);

  /// Shard-level local work: one deterministic slice of a silo's user
  /// sweep. `model`'s parameters are set to the round's global parameters
  /// before the call. Shards of one silo run concurrently with each other
  /// and with other silos' shards, so the callback must write only
  /// shard-local state (e.g. disjoint per-user output slots).
  using ShardWork = std::function<Status(int silo, int shard, Model& model)>;

  /// Runs `work` for every (silo, shard) pair — `silo_shard_counts[s]`
  /// shards for silo s, all >= 1 — as independent pool tasks, so one
  /// dominant silo's user sweep no longer owns the round's critical path.
  /// No reduce step: results must be stored by the callback. Bitwise
  /// determinism is the caller's contract — per-shard randomness must come
  /// from Rng::Fork substreams keyed by (round, silo, user), never from
  /// shard-count-dependent state. Grows the model-clone pool up to the
  /// thread count on first use (sharding exists precisely for
  /// silos < threads, where the per-silo clone bound would serialize it).
  Status RunSiloShards(const Vec& global,
                       const std::vector<int>& silo_shard_counts,
                       const ShardWork& work);

  // -- Asynchronous staleness-bounded rounds --------------------------------
  //
  // StartAsync installs the per-silo work callback and (unless an arrival
  // schedule is injected) spins up min(num_silos, num_threads) worker
  // threads. Each StepAsync(r, global) call then performs exactly one
  // staleness-bounded server step: it publishes `global` as the version-r
  // snapshot, releases every idle silo to train against it, consumes
  // arrivals (applying the staleness rule) until the buffer flushes, and
  // returns the discounted silo-delta sum — the trainer applies its usual
  // server update and calls StepAsync(r + 1, ...) next. Stragglers keep
  // computing across steps; their updates land late with a discount (or
  // are rejected and retrained) instead of stalling every round.

  /// Enters async mode. `work` must stay valid until StopAsync()/dtor.
  Status StartAsync(AsyncLocalWork work, AsyncOptions options);
  /// One server step; `round` must equal the engine's current version.
  Result<Vec> StepAsync(int round, const Vec& global);
  /// Joins the async workers (idempotent; also run by the destructor).
  /// Owners whose work callback touches members declared after the engine
  /// must call this in their own destructor.
  void StopAsync();
  bool async_active() const { return async_ != nullptr; }
  /// Snapshot of the async counters (valid while async mode is active).
  AsyncStats async_stats() const;

  int num_silos() const { return num_silos_; }
  int num_threads() const { return pool_->num_threads(); }
  ThreadPool& pool() { return *pool_; }

 private:
  struct AsyncState;

  /// Checks a model clone out of the free list, blocking until one is
  /// available. One ParallelFor runs at most num_threads() items at once
  /// and the engine keeps that many clones, so only concurrent calls wait.
  Model* AcquireModel();
  void ReleaseModel(Model* model);
  /// Grows the clone pool to `n` clones (from the pristine prototype —
  /// checked-out clones may be mutating concurrently).
  void EnsureClones(int n);

  void AsyncWorkerLoop();
  /// Serial-mode step: consumes injected arrival-schedule events.
  Result<Vec> StepAsyncScheduled(int round);
  /// Threaded-mode step: waits on real worker arrivals.
  Result<Vec> StepAsyncThreaded(int round);

  int num_silos_;
  RoundEngineConfig config_;
  PoolHandle pool_;
  /// Never checked out or mutated: the EnsureClones template.
  std::unique_ptr<Model> prototype_;
  std::vector<std::unique_ptr<Model>> model_clones_;
  std::vector<Model*> free_models_;
  std::mutex model_mu_;
  std::condition_variable model_cv_;
  std::unique_ptr<AsyncState> async_;
};

}  // namespace uldp

#endif  // ULDP_FL_ROUND_ENGINE_H_
