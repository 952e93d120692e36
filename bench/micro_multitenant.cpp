// Multi-tenant DataManager bench: K=4 trainer-shaped clients over ONE
// Platform and one shared manager (the tentpole of the multi-tenant
// refactor), against the big-lock serialized baseline it replaces.
//
// Two phases:
//
//  1. Aggregate throughput.  K=4 symmetric tenants each run S
//     movement-bound training steps (allocate a fast-tier activation,
//     fetch it from the tenant's slow-tier dataset, touch it, write it
//     back to the tenant's slow-tier scratch, recycle).  Configurations:
//       big-lock      one bench-local std::mutex around EVERY manager
//                     entry point and synchronous copies -- the
//                     pre-refactor serial manager retrofitted for
//                     sharing: every tenant's interaction, including its
//                     data movement, serializes onto one timeline.
//       fine-grained  the real manager: per-domain locks, async movement
//                     on the shared mover channels, per-tenant stall
//                     accounting, lock-free telemetry polling.
//     Aggregate throughput is steps per SIMULATED second (the repo's
//     measurement currency -- see sim/clock.hpp: host-independent, which
//     matters because this container may have a single core and real
//     wall-clock parallel speedup is bounded by the host).  Host wall
//     seconds are recorded alongside for transparency.  The acceptance
//     record is the fine-grained/big-lock ratio (target >= 2x).
//
//  2. Eviction storm, QoS off vs on (fine-grained manager).  Three
//     victim tenants run the standard step while an aggressor tenant
//     churns large fast-tier allocations.  With the per-tenant DRAM
//     quota unset the aggressor's storm exhausts the fast tier and the
//     victims pay retry/reclaim work on every allocation; with the
//     quota set (the fairness/QoS knob) the storm is denied at the cap
//     and the victims' latency stays flat.  Per-tenant p50/p99 step
//     latency is reported in SIMULATED seconds, computed from each
//     victim's own accounting (its stall_seconds delta plus its
//     displacement spills priced at the modeled sync-writeback cost) --
//     exact, per-tenant, and free of the 1-core host's scheduler noise;
//     wall p99 is recorded alongside.  The aggressor's quota denials go
//     into BENCH_multitenant.json too.
//
// `--smoke` shrinks step counts for the bench-smoke ctest label.
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "dm/data_manager.hpp"
#include "sim/platform.hpp"
#include "telemetry/counters.hpp"
#include "util/align.hpp"
#include "util/error.hpp"
#include "util/format.hpp"

using namespace ca;
using namespace ca::bench;

namespace {

constexpr std::size_t kTenants = 4;
constexpr std::size_t kActBytes = 256 * util::KiB;
constexpr std::size_t kFastBytes = 8 * util::MiB;
constexpr std::size_t kSlowBytes = 64 * util::MiB;
constexpr std::size_t kAggressorBytes = 512 * util::KiB;
constexpr std::size_t kAggressorRing = 14;  ///< 7 MiB: leaves less than the
                                            ///< victims' steady working set
                                            ///< (3 tenants x 2 acts), so with
                                            ///< the quota unset every victim
                                            ///< step pays displacement
constexpr std::size_t kAggressorQuota = 2 * util::MiB;  ///< the QoS cap

/// The pre-refactor shape: one mutex around every manager entry point, so
/// K clients serialize on a single lock domain.  Only the calls the
/// trainer step uses are forwarded.
class BigLockDM {
 public:
  explicit BigLockDM(dm::DataManager& dm) : dm_(dm) {}

  dm::TenantId register_tenant(std::string name) {
    std::lock_guard<std::mutex> lock(mu_);
    return dm_.register_tenant(std::move(name));
  }
  dm::Region* allocate(sim::DeviceId dev, std::size_t size, dm::TenantId t) {
    std::lock_guard<std::mutex> lock(mu_);
    return dm_.allocate(dev, size, t);
  }
  void free(dm::Region* region) {
    std::lock_guard<std::mutex> lock(mu_);
    dm_.free(region);
  }
  void copyto(dm::Region& dst, dm::Region& src) {
    std::lock_guard<std::mutex> lock(mu_);
    dm_.copyto(dst, src);
  }
  void copyto_async(dm::Region& dst, dm::Region& src) {
    std::lock_guard<std::mutex> lock(mu_);
    (void)dm_.copyto_async(dst, src);
  }
  void wait_ready(dm::Region& region) {
    std::lock_guard<std::mutex> lock(mu_);
    dm_.wait_ready(region);
  }
  void retire_transfers() {
    std::lock_guard<std::mutex> lock(mu_);
    dm_.retire_transfers();
  }
  dm::DataManager::AsyncStats async_stats() {
    std::lock_guard<std::mutex> lock(mu_);
    return dm_.async_stats();
  }
  dm::TenantStats tenant_stats(dm::TenantId t) {
    std::lock_guard<std::mutex> lock(mu_);
    return dm_.tenant_stats(t);
  }

 private:
  std::mutex mu_;
  dm::DataManager& dm_;
};

/// Everything one manager needs to exist.
struct Rig {
  explicit Rig(const sim::Platform& platform)
      : dm(platform, clock, counters) {}
  sim::Clock clock;
  telemetry::TrafficCounters counters;
  dm::DataManager dm;
};

sim::Platform bench_platform() {
  return sim::Platform::cascade_lake_scaled(kFastBytes, kSlowBytes);
}

/// Touch a stripe of the activation -- the (real) compute the trainer
/// does between fetch and writeback.  Kept small: the phase-1 contrast is
/// about the manager, not the kernels.
void touch(dm::Region& region) {
  std::byte* p = region.data();
  for (std::size_t off = 0; off < region.size(); off += 4096) {
    p[off] = static_cast<std::byte>(static_cast<unsigned char>(p[off]) + 1);
  }
}

/// Per-tenant persistent slow-tier regions (fetch source / writeback
/// destination), alive for the whole phase.
template <class Manager>
struct TenantSlots {
  dm::TenantId id;
  dm::Region* dataset = nullptr;
  dm::Region* scratch = nullptr;

  void open(Manager& m, const std::string& name) {
    id = m.register_tenant(name);
    dataset = m.allocate(sim::kSlow, kActBytes, id);
    scratch = m.allocate(sim::kSlow, kActBytes, id);
    CA_CHECK(dataset != nullptr && scratch != nullptr,
             "slow tier undersized for the bench datasets");
  }
  void close(Manager& m) {
    m.free(scratch);
    m.free(dataset);
  }
};

/// One movement-bound training step.  `async` selects the mover path
/// (fine-grained config) vs synchronous copies (serial baseline).  The
/// fast-tier activation ring has depth 2 so the writeback of step n is
/// joined lazily when step n+1 recycles the region.
template <class Manager>
struct Trainer {
  Manager& m;
  TenantSlots<Manager>& slots;
  bool async;
  double spill_cost;  ///< modeled seconds one displacement spill charges
  std::vector<dm::Region*> ring;
  std::size_t steps_done = 0;
  std::size_t spills = 0;
  double last_step_sim = 0.0;  ///< simulated seconds the last step cost
                               ///< THIS tenant (own stalls + own spills)

  /// Allocate the step's activation.  Under storm pressure the fast tier
  /// may be full, in which case the tenant pays the displacement cost the
  /// QoS knob exists to bound: spill its own oldest activation back to
  /// the slow tier (a synchronous writeback it would not otherwise do),
  /// reclaim it, and retry.
  dm::Region* allocate_act() {
    for (;;) {
      if (dm::Region* act = m.allocate(sim::kFast, kActBytes, slots.id)) {
        return act;
      }
      if (!ring.empty()) {
        ++spills;
        m.copyto(*slots.scratch, *ring.front());
        m.free(ring.front());
        ring.erase(ring.begin());
      } else {
        std::this_thread::yield();  // aggressor churn will open a window
      }
    }
  }

  void step() {
    const double stall0 = m.tenant_stats(slots.id).stall_seconds;
    const std::size_t spills0 = spills;
    dm::Region* act = allocate_act();
    if (async) {
      m.copyto_async(*act, *slots.dataset);  // fetch
      m.wait_ready(*act);                    // stall charged to this tenant
    } else {
      m.copyto(*act, *slots.dataset);
    }
    touch(*act);
    if (async) {
      m.copyto_async(*slots.scratch, *act);  // writeback rides a channel
    } else {
      m.copyto(*slots.scratch, *act);
    }
    ring.push_back(act);
    if (ring.size() > 2) {
      m.free(ring.front());  // joins the step n-1 writeback's real bytes
      ring.erase(ring.begin());
    }
    last_step_sim = (m.tenant_stats(slots.id).stall_seconds - stall0) +
                    static_cast<double>(spills - spills0) * spill_cost;
    ++steps_done;
    if (steps_done % 8 == 0) {
      // Telemetry polling -- lock-free on the fine-grained manager, one
      // more big-lock acquisition on the baseline.
      (void)m.async_stats();
      (void)m.tenant_stats(slots.id);
    }
  }

  void drain() {
    for (dm::Region* act : ring) m.free(act);
    ring.clear();
  }
};

struct PhaseResult {
  double sim_seconds = 0.0;
  double wall_seconds = 0.0;
  std::vector<std::vector<double>> step_wall;  ///< per tenant, per step
  std::vector<dm::TenantStats> stats;          ///< per tenant, at the end
  std::size_t total_steps = 0;
};

/// Phase 1 body: K symmetric tenants, S steps each, over `manager`.
template <class Manager>
PhaseResult run_throughput(Rig& rig, Manager& manager, bool async,
                           std::size_t steps) {
  std::vector<TenantSlots<Manager>> slots(kTenants);
  for (std::size_t i = 0; i < kTenants; ++i) {
    slots[i].open(manager, "trainer-" + std::to_string(i));
  }
  PhaseResult result;
  result.step_wall.resize(kTenants);
  const double sim0 = rig.clock.now();
  WallTimer wall;
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kTenants; ++i) {
    threads.emplace_back([&, i] {
      Trainer<Manager> trainer{manager, slots[i], async, 0.0, {}, 0, 0, 0.0};
      auto& lat = result.step_wall[i];
      lat.reserve(steps);
      for (std::size_t s = 0; s < steps; ++s) {
        WallTimer t;
        trainer.step();
        lat.push_back(t.seconds());
      }
      trainer.drain();
    });
  }
  for (auto& t : threads) t.join();
  rig.dm.drain_transfers();
  result.wall_seconds = wall.seconds();
  result.sim_seconds = rig.clock.now() - sim0;
  result.total_steps = kTenants * steps;
  for (std::size_t i = 0; i < kTenants; ++i) {
    result.stats.push_back(rig.dm.tenant_stats(slots[i].id));
    slots[i].close(manager);
  }
  return result;
}

/// Phase 2 body: 3 victims run the standard async step while the
/// aggressor churns `kAggressorBytes` fast-tier allocations.  With
/// `qos` the aggressor's fast-tier residency is capped at
/// kAggressorQuota, so the storm is denied instead of displacing the
/// victims' working set.
struct StormResult {
  std::vector<std::vector<double>> victim_wall;  ///< per victim, per step
  std::vector<std::vector<double>> victim_sim;   ///< per victim, per step
  std::vector<std::size_t> victim_spills;
  std::uint64_t aggressor_denials = 0;
  std::uint64_t aggressor_allocs = 0;
};

StormResult run_storm(bool qos, std::size_t steps) {
  const sim::Platform platform = bench_platform();
  Rig rig(platform);
  dm::DataManager& dm = rig.dm;

  constexpr std::size_t kVictims = kTenants - 1;
  std::vector<TenantSlots<dm::DataManager>> slots(kVictims);
  for (std::size_t i = 0; i < kVictims; ++i) {
    slots[i].open(dm, "victim-" + std::to_string(i));
  }
  const dm::TenantId aggressor = dm.register_tenant("aggressor");
  if (qos) dm.set_tenant_quota(aggressor, sim::kFast, kAggressorQuota);

  StormResult result;
  result.victim_wall.resize(kVictims);
  result.victim_sim.resize(kVictims);
  result.victim_spills.resize(kVictims);

  // Price one displacement spill while still single-threaded: the modeled
  // cost of the synchronous fast->slow writeback the spill path issues.
  double spill_cost = 0.0;
  {
    dm::Region* probe = dm.allocate(sim::kFast, kActBytes, slots[0].id);
    CA_CHECK(probe != nullptr, "empty fast tier rejected the probe");
    const double sim0 = rig.clock.now();
    dm.copyto(*slots[0].scratch, *probe);
    spill_cost = rig.clock.now() - sim0;
    dm.free(probe);
  }
  std::atomic<bool> stop{false};
  std::atomic<bool> storm_ready{false};

  std::thread storm([&] {
    std::vector<dm::Region*> held;
    // Pre-fill: claim the full ring -- or run into the quota/heap bound --
    // before the victims take their first step, so the storm's footprint
    // is in place for their whole run.
    while (held.size() < kAggressorRing) {
      dm::Region* r = dm.allocate(sim::kFast, kAggressorBytes, aggressor);
      if (r == nullptr) break;
      held.push_back(r);
    }
    storm_ready.store(true, std::memory_order_release);
    while (!stop.load(std::memory_order_relaxed)) {
      if (held.size() < kAggressorRing) {
        // Below footprint (quota denials, or a victim claimed a hole):
        // keep hammering -- this is the storm.
        if (dm::Region* r =
                dm.allocate(sim::kFast, kAggressorBytes, aggressor)) {
          held.push_back(r);
        }
      } else {
        // At footprint: churn the oldest block.  Free-then-reallocate in
        // the same quantum (no yield between) so the storm's residency
        // holds steady instead of draining into the victims' partition.
        dm.free(held.front());
        held.erase(held.begin());
        if (dm::Region* r =
                dm.allocate(sim::kFast, kAggressorBytes, aggressor)) {
          held.push_back(r);
        }
      }
      std::this_thread::yield();
    }
    for (dm::Region* r : held) dm.free(r);
    const auto stats = dm.tenant_stats(aggressor);
    result.aggressor_denials = stats.quota_denials;
    result.aggressor_allocs = stats.allocations;
  });

  while (!storm_ready.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  std::vector<std::thread> victims;
  for (std::size_t i = 0; i < kVictims; ++i) {
    victims.emplace_back([&, i] {
      Trainer<dm::DataManager> trainer{dm,         slots[i], /*async=*/true,
                                       spill_cost, {},       0,
                                       0,          0.0};
      auto& wall_lat = result.victim_wall[i];
      auto& sim_lat = result.victim_sim[i];
      wall_lat.reserve(steps);
      sim_lat.reserve(steps);
      for (std::size_t s = 0; s < steps; ++s) {
        WallTimer t;
        trainer.step();
        wall_lat.push_back(t.seconds());
        sim_lat.push_back(trainer.last_step_sim);
      }
      trainer.drain();
      result.victim_spills[i] = trainer.spills;
    });
  }
  for (auto& t : victims) t.join();
  stop.store(true, std::memory_order_relaxed);
  storm.join();
  dm.drain_transfers();
  for (auto& s : slots) s.close(dm);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = has_flag(argc, argv, "--smoke");
  const std::size_t steps = smoke ? 48 : 1024;
  const std::size_t storm_steps = smoke ? 32 : 512;

  const sim::Platform platform = bench_platform();
  std::printf("=== micro_multitenant ===\n");
  std::printf(
      "K=%zu trainers over one shared DataManager (fast %s, slow %s),\n"
      "%zu movement-bound steps each (%s per step fetch+writeback).\n"
      "Throughput is steps per simulated second (host-independent; wall\n"
      "seconds reported alongside).%s\n\n",
      kTenants, util::format_bytes(kFastBytes).c_str(),
      util::format_bytes(kSlowBytes).c_str(), steps,
      util::format_bytes(2 * kActBytes).c_str(),
      smoke ? "  [smoke counts]" : "");

  BenchReport report("multitenant");
  // --- Phase 1: aggregate throughput, big-lock vs fine-grained -------------
  const auto run_config = [&](const char* label, bool fine) {
    Rig rig(platform);
    PhaseResult r;
    if (fine) {
      r = run_throughput(rig, rig.dm, /*async=*/true, steps);
    } else {
      BigLockDM big(rig.dm);
      r = run_throughput(rig, big, /*async=*/false, steps);
    }
    std::vector<double> all_steps;
    for (auto& lat : r.step_wall) {
      all_steps.insert(all_steps.end(), lat.begin(), lat.end());
    }
    const double p99 = percentile(all_steps, 0.99);
    const double thr_sim = r.sim_seconds > 0.0
                               ? static_cast<double>(r.total_steps) / r.sim_seconds
                               : 0.0;
    const double thr_wall =
        r.wall_seconds > 0.0
            ? static_cast<double>(r.total_steps) / r.wall_seconds
            : 0.0;
    std::printf("%-24s sim %8.4fs  wall %7.3fs  %9.1f steps/sim-s  "
                "%8.1f steps/wall-s  p99 %7.1fus\n",
                label, r.sim_seconds, r.wall_seconds, thr_sim, thr_wall,
                p99 * 1e6);
    const std::string k4 = std::string("K=4 ") + label;
    report.add("sim s: " + k4, r.sim_seconds, "s", Better::kLower);
    report.add("wall s: " + k4, r.wall_seconds, "s", Better::kLower);
    report.add("steps/sim-s: " + k4, thr_sim, "steps/s", Better::kHigher);
    report.add("steps/wall-s: " + k4, thr_wall, "steps/s", Better::kHigher);
    report.add("p99 step s: " + k4, p99, "s", Better::kLower);
    for (std::size_t i = 0; i < r.stats.size(); ++i) {
      report.add("stall s: " + std::string(label) + ", trainer-" +
                     std::to_string(i),
                 r.stats[i].stall_seconds, "s", Better::kLower);
    }
    return thr_sim;
  };

  const double thr_big = run_config("big-lock serialized", false);
  const double thr_fine = run_config("fine-grained", true);
  const double speedup = thr_big > 0.0 ? thr_fine / thr_big : 0.0;
  std::printf("\naggregate throughput, fine-grained vs big-lock: %.2fx\n\n",
              speedup);
  report.add(
      "speedup: K=4 aggregate trainer throughput, fine-grained vs big-lock "
      "serialized",
      speedup, "ratio", Better::kHigher);

  // --- Phase 2: eviction storm, QoS off vs on ------------------------------
  std::printf("eviction storm: %zu victim steps, aggressor ring %s%s\n",
              storm_steps,
              util::format_bytes(kAggressorRing * kAggressorBytes).c_str(),
              smoke ? "  [smoke counts]" : "");
  double p99_off_worst = 0.0, p99_on_worst = 0.0;
  for (const bool qos : {false, true}) {
    const StormResult storm = run_storm(qos, storm_steps);
    const char* mode = qos ? "on" : "off";
    for (std::size_t i = 0; i < storm.victim_sim.size(); ++i) {
      std::vector<double> sim_lat = storm.victim_sim[i];
      std::vector<double> wall_lat = storm.victim_wall[i];
      const double p50 = percentile(sim_lat, 0.5);
      const double p99 = percentile(sim_lat, 0.99);
      const double wall_p99 = percentile(wall_lat, 0.99);
      (qos ? p99_on_worst : p99_off_worst) =
          std::max(qos ? p99_on_worst : p99_off_worst, p99);
      std::printf("  qos=%-3s victim-%zu  p50 %8.4fs  p99 %8.4fs (sim)  "
                  "p99 %7.1fus (wall)  %zu spills\n",
                  mode, i, p50, p99, wall_p99 * 1e6,
                  storm.victim_spills[i]);
      const std::string tag =
          std::string("storm qos=") + mode + ", victim-" + std::to_string(i);
      report.add("p50 step s: " + tag, p50, "s", Better::kLower);
      report.add("p99 step s: " + tag, p99, "s", Better::kLower);
      report.add("p99 step wall s: " + tag, wall_p99, "s", Better::kLower);
      report.add("displacement spills: " + tag,
                 static_cast<double>(storm.victim_spills[i]), "count",
                 Better::kLower);
    }
    std::printf("  qos=%-3s aggressor: %llu allocations, %llu quota denials\n",
                mode,
                static_cast<unsigned long long>(storm.aggressor_allocs),
                static_cast<unsigned long long>(storm.aggressor_denials));
    report.add(std::string("quota denials: storm qos=") + mode +
                   ", aggressor",
               static_cast<double>(storm.aggressor_denials), "count",
               Better::kLower);
  }
  const double qos_gain =
      p99_on_worst > 0.0 ? p99_off_worst / p99_on_worst : 0.0;
  std::printf("\nworst victim p99, qos off vs on: %.2fx\n", qos_gain);
  report.add("qos p99 improvement: worst victim, storm off vs on", qos_gain,
             "ratio", Better::kHigher);

  report.write(argc, argv);

  if (!smoke && speedup < 2.0) {
    std::printf(
        "\nWARNING: fine-grained aggregate throughput %.2fx is below the "
        "2x acceptance target\n",
        speedup);
  }
  return 0;
}
