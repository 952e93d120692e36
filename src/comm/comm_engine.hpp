// comm::CommEngine: asynchronous gradient allreduce over the simulated
// interconnect, mirroring mem::CopyEngine's two-completion discipline.
//
// A Reduction, like a mem::Transfer, has two decoupled completions:
//   * the *modeled* completion (done_time()): the simulated second the
//     collective retires from the interconnect, computed at submit time on
//     the submitting thread under mu_ -- deterministic regardless of host
//     scheduling.  dp::Trainer folds this into its overlap timeline.
//   * the *real* completion: the engine's thread pool has actually summed
//     the K workers' gradient shards (canonical worker order 0..K-1, so
//     the reduced bytes are bitwise deterministic) and broadcast the
//     result back.  join() blocks for it; it never advances any clock.
//
// Bucket access runs entirely through dm::PinnedSpan: allreduce_async
// takes ownership of one pinned span per worker, the pool task reads and
// writes through them (every byte move via util::copy_bytes, so the race
// detector and the comm-route lint rule see them), and the pins drop only
// after the reduced result has landed.  Releasing a bucket while it is on
// the wire is therefore structurally impossible through this API -- the
// race tests re-create that hazard by stealing the spans (CommTestPeer)
// and watching CA_RACE flag the free-while-on-wire conflict.
//
// Locks (docs/lock_hierarchy.json): comm::CommEngine::mu_ guards the
// interconnect schedules and stats; comm::Reduction::State::mu guards the
// completion condition variable.  Both are leaves: the modeled schedule is
// computed entirely under mu_, and pool submission / pin release happen
// outside any comm lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "comm/allreduce.hpp"
#include "comm/link_model.hpp"
#include "dm/pinned_span.hpp"
#include "race/sync.hpp"
#include "util/thread_annotations.hpp"
#include "util/threadpool.hpp"

namespace ca::comm {

class CommEngine;
class CommTestPeer;

struct CommConfig {
  std::size_t workers = 2;
  LinkModel link = LinkModel::ethernet_scaled();
  /// Force one algorithm for every bucket; unset picks per bucket by size
  /// (the ring/tree crossover, allreduce.hpp).
  std::optional<Algorithm> force_algorithm;
};

struct CommStats {
  std::uint64_t reductions = 0;
  std::uint64_t bytes_on_wire = 0;  ///< wire_bytes() summed over reductions
  std::uint64_t ring_picks = 0;
  std::uint64_t tree_picks = 0;
  double busy_seconds = 0.0;  ///< modeled collective durations, summed
  double last_done = 0.0;     ///< latest modeled completion time
};

/// Handle to one in-flight allreduce (shape of mem::Transfer).
class Reduction {
 public:
  Reduction() = default;

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }

  /// Modeled interconnect occupancy, in simulated seconds.
  [[nodiscard]] double start_time() const noexcept {
    return state_ ? state_->start : 0.0;
  }
  [[nodiscard]] double done_time() const noexcept {
    return state_ ? state_->done : 0.0;
  }

  /// Per-worker shard size (every worker contributes this many bytes).
  [[nodiscard]] std::size_t bytes() const noexcept {
    return state_ ? state_->bytes : 0;
  }
  [[nodiscard]] Algorithm algorithm() const noexcept {
    return state_ ? state_->algo : Algorithm::kRing;
  }
  [[nodiscard]] std::size_t steps() const noexcept {
    return state_ ? state_->steps : 0;
  }

  /// True once the real summation has landed (host-side fact; never branch
  /// simulated behaviour on it).
  [[nodiscard]] bool real_done() const {
    return state_ == nullptr ||
           state_->real_done.load(std::memory_order_acquire);
  }

  /// Block the calling host thread until the reduced bytes have landed in
  /// every worker's bucket.  Does not touch any clock; idempotent.
  void join() const {
    if (state_ == nullptr) return;
    // As with mem::Transfer::join: flag held-across-blocking before the
    // early-out so the hazard is caught in every schedule.
    CA_LOCKDEP_ON_BLOCKING("comm::Reduction::join");
    if (state_->real_done.load(std::memory_order_acquire)) return;
    sync::lock lock(state_->mu);
    state_->cv.wait(lock, [s = state_.get()] {
      return s->real_done.load(std::memory_order_acquire);
    });
  }

  void reset() noexcept { state_.reset(); }

 private:
  friend class CommEngine;
  friend class CommTestPeer;

  struct State {
    double start = 0.0;
    double done = 0.0;
    std::size_t bytes = 0;
    std::size_t steps = 0;
    Algorithm algo = Algorithm::kRing;
    /// The pinned gradient shards, one per worker, held until the reduced
    /// result has been broadcast back (then reset, dropping the pins).
    std::vector<dm::PinnedSpan> parts;
    sync::atomic<bool> real_done{false};
    sync::mutex mu CA_LEAF{CA_LOCK_CLASS("comm::Reduction::State::mu")};
    sync::condition_variable cv;
  };

  explicit Reduction(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

class CommEngine {
 public:
  explicit CommEngine(CommConfig config = {});

  CommEngine(const CommEngine&) = delete;
  CommEngine& operator=(const CommEngine&) = delete;

  /// Destructor drains the pool, so every in-flight reduction lands first.
  ~CommEngine();

  /// Launch an allreduce of one gradient bucket: `parts[w]` is worker w's
  /// pinned shard, all the same size.  The modeled schedule starts no
  /// earlier than simulated second `earliest` (the bucket's gradient-ready
  /// time); the real summation runs on the engine's pool.  Takes ownership
  /// of the spans -- the buckets stay pinned while on the wire.
  Reduction allreduce_async(std::vector<dm::PinnedSpan> parts,
                            double earliest) CA_EXCLUDES(mu_);

  /// Block until every submitted reduction's real work has finished.
  void drain() CA_EXCLUDES(mu_);

  /// Algorithm this engine would use for a bucket of `bytes` (the config
  /// override, or the idle-network cost comparison).
  [[nodiscard]] Algorithm pick(std::size_t bytes) const;

  [[nodiscard]] CommStats stats() const CA_EXCLUDES(mu_);
  [[nodiscard]] const CommConfig& config() const noexcept { return config_; }

 private:
  friend class CommTestPeer;

  /// The real math: acc = sum over workers (canonical order), broadcast
  /// back, drop the pins, signal completion.  Runs on the pool.
  static void reduce_now(Reduction::State& state);

  CommConfig config_;
  mutable sync::mutex mu_ CA_LEAF{CA_LOCK_CLASS("comm::CommEngine::mu_")};
  Interconnect net_ CA_GUARDED_BY(mu_);
  CommStats stats_ CA_GUARDED_BY(mu_);
  util::ThreadPool pool_;  ///< last member: destroyed (joined) first
};

}  // namespace ca::comm
