#include "comm/comm_engine.hpp"

#include <algorithm>

#include "race/access.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace ca::comm {

namespace {

/// Host threads doing the real summation (never affects modeled times).
constexpr std::size_t kPoolThreads = 2;

}  // namespace

CommEngine::CommEngine(CommConfig config)
    : config_(config),
      net_(config_.workers, config_.link),
      pool_(kPoolThreads) {
  CA_CHECK(config_.workers >= 1, "comm engine needs at least one worker");
}

CommEngine::~CommEngine() { drain(); }

Algorithm CommEngine::pick(std::size_t bytes) const {
  if (config_.force_algorithm.has_value()) return *config_.force_algorithm;
  return pick_algorithm(config_.link, config_.workers, bytes);
}

Reduction CommEngine::allreduce_async(std::vector<dm::PinnedSpan> parts,
                                      double earliest) {
  CA_CHECK(parts.size() == config_.workers,
           "allreduce needs one shard per worker");
  const std::size_t bytes = parts.front().size_bytes();
  for (const dm::PinnedSpan& p : parts) {
    CA_CHECK(p.valid(), "allreduce shard span is empty");
    CA_CHECK(p.size_bytes() == bytes, "allreduce shards differ in size");
  }
  CA_CHECK(bytes % sizeof(float) == 0,
           "gradient shards must be whole floats");

  auto state = std::make_shared<Reduction::State>();
  state->bytes = bytes;
  state->algo = pick(bytes);
  state->parts = std::move(parts);

  {
    // The whole modeled schedule is computed here, under mu_, on the
    // submitting thread: modeled times depend only on submission order,
    // never on pool timing.
    sync::lock lock(mu_);
    const Interconnect::Timeline tl =
        net_.schedule_allreduce(state->algo, bytes, earliest);
    state->start = tl.start;
    state->done = tl.done;
    state->steps = tl.steps;
    ++stats_.reductions;
    stats_.bytes_on_wire += wire_bytes(state->algo, config_.workers, bytes);
    if (state->algo == Algorithm::kRing) {
      ++stats_.ring_picks;
    } else {
      ++stats_.tree_picks;
    }
    stats_.busy_seconds += tl.done - tl.start;
    stats_.last_done = std::max(stats_.last_done, tl.done);
  }

  // Submit outside mu_ (leaf discipline: never hold a comm lock while
  // taking the pool's queue lock).
  pool_.submit([state] { reduce_now(*state); });
  return Reduction(state);
}

void CommEngine::reduce_now(Reduction::State& state) {
  const std::size_t bytes = state.bytes;
  const std::size_t n = bytes / sizeof(float);
  const std::size_t workers = state.parts.size();

  // acc starts as worker 0's shard; every byte that "crosses the wire"
  // moves through util::copy_bytes so the race detector sees the access
  // and the comm-route lint rule has a single funnel to check.
  std::vector<float> acc(n);
  util::copy_bytes(acc.data(), state.parts[0].data(), bytes,
                   "comm::allreduce:gather");
  for (std::size_t w = 1; w < workers; ++w) {
    const auto* src =
        reinterpret_cast<const float*>(state.parts[w].data());
    // The summation is arithmetic, not byte movement, so it does not go
    // through copy_bytes; record the read explicitly for the detector.
    CA_RACE_READ(src, bytes, "comm::allreduce:sum");
    for (std::size_t i = 0; i < n; ++i) acc[i] += src[i];
  }
  for (std::size_t w = 0; w < workers; ++w) {
    util::copy_bytes(state.parts[w].data(), acc.data(), bytes,
                     "comm::allreduce:scatter");
  }

  // Drop the pins before signalling: a joiner may immediately retire the
  // bucket, and pin release takes DataManager locks that must never nest
  // under State::mu (leaf).
  for (dm::PinnedSpan& p : state.parts) p.reset();

  {
    sync::lock lock(state.mu);
    state.real_done.store(true, std::memory_order_release);
  }
  state.cv.notify_all();
}

void CommEngine::drain() {
  CA_LOCKDEP_ON_BLOCKING("comm::CommEngine::drain");
  pool_.wait_idle();
}

CommStats CommEngine::stats() const {
  sync::lock lock(mu_);
  return stats_;
}

}  // namespace ca::comm
