// A minimal intrusive doubly-linked list.
//
// The policy layer keeps objects on LRU / eviction-priority queues whose
// membership changes on every kernel; an intrusive list gives O(1)
// splice/remove with zero allocation, which matters because hint processing
// sits on the critical path of every kernel launch.
#pragma once

#include <cstddef>

#include "util/error.hpp"

namespace ca::util {

/// Embed one of these per list a type participates in.
struct ListHook {
  ListHook* prev = nullptr;
  ListHook* next = nullptr;

  [[nodiscard]] bool linked() const noexcept { return prev != nullptr; }
};

/// Intrusive list over T, where `HookMember` is a pointer-to-member to the
/// ListHook inside T.  The list does not own its elements.
template <typename T, ListHook T::* HookMember>
class IntrusiveList {
 public:
  IntrusiveList() noexcept { sentinel_.prev = sentinel_.next = &sentinel_; }

  IntrusiveList(const IntrusiveList&) = delete;
  IntrusiveList& operator=(const IntrusiveList&) = delete;

  [[nodiscard]] bool empty() const noexcept {
    return sentinel_.next == &sentinel_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Insert at the front (most-recently-used end by convention).
  void push_front(T& item) {
    ListHook& h = item.*HookMember;
    CA_CHECK(!h.linked(), "element already on a list");
    insert_after(&sentinel_, &h);
    ++size_;
  }

  /// Insert at the back (least-recently-used / next-victim end).
  void push_back(T& item) {
    ListHook& h = item.*HookMember;
    CA_CHECK(!h.linked(), "element already on a list");
    insert_after(sentinel_.prev, &h);
    ++size_;
  }

  /// Remove a specific element.  O(1).
  void erase(T& item) noexcept {
    ListHook& h = item.*HookMember;
    if (!h.linked()) return;
    h.prev->next = h.next;
    h.next->prev = h.prev;
    h.prev = h.next = nullptr;
    --size_;
  }

  [[nodiscard]] T* front() noexcept {
    return empty() ? nullptr : owner(sentinel_.next);
  }
  [[nodiscard]] T* back() noexcept {
    return empty() ? nullptr : owner(sentinel_.prev);
  }

  /// Pop from the back (evict the coldest element). Returns nullptr if empty.
  T* pop_back() noexcept {
    T* item = back();
    if (item != nullptr) erase(*item);
    return item;
  }

  /// Move an element to the front (touch in an LRU).
  void move_to_front(T& item) {
    erase(item);
    push_front(item);
  }

  /// Move an element to the back (mark as next victim, e.g. on `archive`).
  void move_to_back(T& item) {
    erase(item);
    push_back(item);
  }

  /// Forward iteration, front to back.  It is safe to erase the *current*
  /// element from within the loop body if the caller advances first.
  template <typename Fn>
  void for_each(Fn&& fn) {
    ListHook* h = sentinel_.next;
    while (h != &sentinel_) {
      ListHook* next = h->next;
      fn(*owner(h));
      h = next;
    }
  }

  /// First element from the back satisfying `pred`, or nullptr.
  template <typename Pred>
  [[nodiscard]] T* find_from_back(Pred&& pred) {
    for (ListHook* h = sentinel_.prev; h != &sentinel_; h = h->prev) {
      T* item = owner(h);
      if (pred(*item)) return item;
    }
    return nullptr;
  }

 private:
  static void insert_after(ListHook* pos, ListHook* h) noexcept {
    h->prev = pos;
    h->next = pos->next;
    pos->next->prev = h;
    pos->next = h;
  }

  static T* owner(ListHook* h) noexcept {
    // Recover the owning object from the embedded hook.
    auto offset = reinterpret_cast<std::size_t>(
        &(static_cast<T*>(nullptr)->*HookMember));
    return reinterpret_cast<T*>(reinterpret_cast<char*>(h) - offset);
  }

  ListHook sentinel_;
  std::size_t size_ = 0;
};

}  // namespace ca::util
