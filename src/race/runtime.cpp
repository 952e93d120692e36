#include "race/runtime.hpp"

#include <cstdio>

namespace ca::race {

namespace {

/// Per-thread registration, invalidated by Runtime::reset() bumping the
/// generation (threads themselves may outlive a generation only if they
/// stop touching instrumented state, which reset()'s contract requires).
struct ThreadSlot {
  std::uint64_t generation = 0;
  Tid tid = 0;
};
thread_local ThreadSlot t_slot;

constexpr std::size_t kMaxReports = 64;

}  // namespace

const char* to_string(AccessKind kind) noexcept {
  switch (kind) {
    case AccessKind::kRead:
      return "read";
    case AccessKind::kWrite:
      return "write";
    case AccessKind::kAlloc:
      return "alloc";
    case AccessKind::kFree:
      return "free";
  }
  return "?";
}

std::string RaceReport::to_string() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "race: %s by task %u [%s] vs %s by task %u [%s] on "
                "[%p, +%zu)%s",
                race::to_string(prior_kind), prior_tid, prior_label,
                race::to_string(current_kind), current_tid, current_label,
                reinterpret_cast<void*>(addr), size,
                use_after_free ? " (use after free)" : "");
  return buf;
}

Runtime& Runtime::instance() {
  static Runtime runtime;
  return runtime;
}

Tid Runtime::new_tid_locked() {
  const auto tid = static_cast<Tid>(vc_.size());
  vc_.emplace_back();
  vc_.back().tick(tid);  // every task starts with a live epoch
  return tid;
}

Tid Runtime::current_tid_locked() {
  if (t_slot.generation != generation_) {
    t_slot.generation = generation_;
    t_slot.tid = new_tid_locked();
  }
  return t_slot.tid;
}

Tid Runtime::current_tid() {
  std::lock_guard lock(mu_);
  return current_tid_locked();
}

Tid Runtime::reserve_tid() {
  std::lock_guard lock(mu_);
  return new_tid_locked();
}

void Runtime::bind_tid(Tid tid) {
  std::lock_guard lock(mu_);
  t_slot.generation = generation_;
  t_slot.tid = tid;
}

VectorClock& Runtime::vc_of_locked(Tid tid) { return vc_.at(tid); }

void Runtime::reset() {
  std::lock_guard lock(mu_);
  ++generation_;
  vc_.clear();
  sync_vc_.clear();
  forks_.clear();
  shadows_.clear();
  reports_.clear();
}

void Runtime::acquire(const void* obj) {
  std::lock_guard lock(mu_);
  const Tid tid = current_tid_locked();
  const auto it = sync_vc_.find(obj);
  if (it != sync_vc_.end()) vc_of_locked(tid).join(it->second);
}

void Runtime::release(const void* obj) {
  std::lock_guard lock(mu_);
  const Tid tid = current_tid_locked();
  VectorClock& mine = vc_of_locked(tid);
  sync_vc_[obj].join(mine);
  mine.tick(tid);
}

void Runtime::acq_rel(const void* obj) {
  std::lock_guard lock(mu_);
  const Tid tid = current_tid_locked();
  VectorClock& mine = vc_of_locked(tid);
  const auto it = sync_vc_.find(obj);
  if (it != sync_vc_.end()) mine.join(it->second);
  sync_vc_[obj].join(mine);
  mine.tick(tid);
}

void Runtime::forget_sync(const void* obj) {
  std::lock_guard lock(mu_);
  sync_vc_.erase(obj);
}

std::uint64_t Runtime::prepare_fork() {
  std::lock_guard lock(mu_);
  const Tid tid = current_tid_locked();
  VectorClock& mine = vc_of_locked(tid);
  const std::uint64_t token = next_fork_++;
  forks_[token] = mine;
  mine.tick(tid);
  return token;
}

void Runtime::bind_fork(std::uint64_t token) {
  std::lock_guard lock(mu_);
  const Tid tid = current_tid_locked();
  const auto it = forks_.find(token);
  if (it != forks_.end()) {
    vc_of_locked(tid).join(it->second);
    forks_.erase(it);
  }
}

void Runtime::join_with(Tid child) {
  std::lock_guard lock(mu_);
  const Tid tid = current_tid_locked();
  if (child < vc_.size()) vc_of_locked(tid).join(vc_[child]);
}

void Runtime::report_locked(const Shadow& s, AccessKind prior, Tid prior_tid,
                            const char* prior_label, AccessKind current,
                            Tid tid, const char* label, std::uintptr_t addr,
                            std::size_t size, bool use_after_free) {
  static_cast<void>(s);
  if (reports_.size() >= kMaxReports) return;
  // Dedupe repeated findings of the same pair (e.g. one per copied chunk).
  for (const RaceReport& r : reports_) {
    if (r.prior_label == prior_label && r.current_label == label &&
        r.prior_tid == prior_tid && r.current_tid == tid &&
        r.prior_kind == prior && r.current_kind == current) {
      return;
    }
  }
  RaceReport r;
  r.prior_kind = prior;
  r.current_kind = current;
  r.prior_tid = prior_tid;
  r.current_tid = tid;
  r.prior_label = prior_label;
  r.current_label = label;
  r.addr = addr;
  r.size = size;
  r.use_after_free = use_after_free;
  reports_.push_back(r);
}

void Runtime::record_access(const void* addr, std::size_t size,
                            AccessKind kind, const char* label) {
  if (size == 0) return;
  std::lock_guard lock(mu_);
  const Tid tid = current_tid_locked();
  const VectorClock& mine = vc_of_locked(tid);
  const auto base = reinterpret_cast<std::uintptr_t>(addr);
  const auto end = base + size;
  const bool is_write = kind != AccessKind::kRead;

  // 1. Check every overlapping shadow cell for unordered conflicts.
  for (const Shadow& s : shadows_) {
    const std::uintptr_t s_end = s.base + s.size;
    if (s_end <= base || end <= s.base) continue;  // no overlap
    const std::uintptr_t o_base = s.base > base ? s.base : base;
    const std::size_t o_size = (s_end < end ? s_end : end) - o_base;
    if (s.has_write && s.w_clk > mine.at(s.w_tid)) {
      report_locked(s, s.w_kind, s.w_tid, s.w_label, kind, tid, label, o_base,
                    o_size, s.freed);
    }
    if (is_write) {
      for (Tid r = 0; r < static_cast<Tid>(s.reads.size()); ++r) {
        if (s.reads.at(r) > mine.at(r)) {
          report_locked(s, AccessKind::kRead, r, s.r_label, kind, tid, label,
                        o_base, o_size, false);
          break;
        }
      }
    }
  }

  // 2. Update the shadow state.  A write-kind access supersedes every cell
  // it fully covers; reads fold into an existing same-range cell.
  if (is_write) {
    std::size_t kept = 0;
    for (Shadow& s : shadows_) {
      const bool covered = s.base >= base && s.base + s.size <= end;
      if (covered) continue;
      if (&shadows_[kept] != &s) shadows_[kept] = std::move(s);
      ++kept;
    }
    shadows_.resize(kept);
    Shadow s;
    s.base = base;
    s.size = size;
    s.has_write = true;
    s.freed = kind == AccessKind::kFree;
    s.w_tid = tid;
    s.w_clk = mine.at(tid);
    s.w_kind = kind;
    s.w_label = label;
    shadows_.push_back(std::move(s));
    return;
  }

  for (Shadow& s : shadows_) {
    if (s.base == base && s.size == size) {
      s.reads.set(tid, mine.at(tid));
      s.r_label = label;
      return;
    }
  }
  Shadow s;
  s.base = base;
  s.size = size;
  s.reads.set(tid, mine.at(tid));
  s.r_label = label;
  shadows_.push_back(std::move(s));
}

std::size_t Runtime::report_count() {
  std::lock_guard lock(mu_);
  return reports_.size();
}

std::vector<RaceReport> Runtime::take_reports() {
  std::lock_guard lock(mu_);
  std::vector<RaceReport> out;
  out.swap(reports_);
  return out;
}

}  // namespace ca::race
