// Multi-argument kernel launches over CachedArrays.
//
// Mirrors the end-to-end flow of §III-E: for each compute kernel the
// runtime issues will_read on read-only parameters and will_write on
// written parameters (giving the policy its chance to stage data), then
// resolves every object once, pins the arguments, runs the kernel body on
// raw spans, and unpins.
#pragma once

#include <cstddef>
#include <vector>

#include "core/cached_array.hpp"
#include "core/runtime.hpp"

namespace ca::core {

class KernelLaunch {
 public:
  explicit KernelLaunch(Runtime& rt) : rt_(&rt) {}

  template <typename T>
  KernelLaunch& reads(const CachedArray<T>& a) {
    args_.push_back({a.object(), false});
    return *this;
  }

  template <typename T>
  KernelLaunch& writes(CachedArray<T>& a) {
    args_.push_back({a.object(), true});
    return *this;
  }

  /// Stage (hints), pin, run `fn()`, unpin.  Inside `fn`, use
  /// CachedArray::with_read / with_write or Runtime::access spans;
  /// arguments registered here cannot be displaced meanwhile.
  template <typename Fn>
  decltype(auto) run(Fn&& fn) {
    std::vector<dm::Object*> objects;
    objects.reserve(args_.size());
    for (const auto& a : args_) objects.push_back(a.object);

    // Hints first (the policy may move data), then the pin bracket.
    rt_->policy().begin_kernel(objects);  // protect args during staging
    for (const auto& a : args_) {
      if (a.object == nullptr) continue;
      if (a.written) {
        rt_->will_write(*a.object);
      } else {
        rt_->will_read(*a.object);
      }
    }
    rt_->policy().end_kernel();

    rt_->begin_kernel(objects);
    struct Unpin {
      Runtime* rt;
      std::span<dm::Object* const> objs;
      ~Unpin() { rt->end_kernel(objs); }
    } unpin{rt_, objects};
    return std::forward<Fn>(fn)();
  }

 private:
  struct Arg {
    dm::Object* object;
    bool written;
  };

  Runtime* rt_;
  std::vector<Arg> args_;
};

}  // namespace ca::core
