// A pre-faulted memory arena backing one simulated device.
//
// CachedArrays requires its heaps to be preallocated from the OS before the
// run (paper §III-C): the real system obtained them from one large malloc or
// a DAX mmap, and every page has a physical frame before the first
// iteration (the authors note this is itself a large speedup over default
// allocators).
//
// Each arena is one anonymous private mmap:
//   * The mapping starts on a 2 MiB (huge-page) boundary.  We over-reserve
//     by 2 MiB and unmap the head and tail slack at once, so what stays
//     mapped is exactly the arena rounded up to whole pages.
//   * madvise(MADV_HUGEPAGE) asks for transparent huge pages.  With THP in
//     `madvise` or `always` mode the arena is backed by 2 MiB pages; with THP
//     off the call is a harmless no-op.
//   * madvise(MADV_POPULATE_WRITE) has the kernel fault in every page,
//     writable, in one call -- no user-space pass over the memory.  Fresh
//     anonymous pages are zero-filled by the kernel, so the content is
//     deterministic (all zero) without a memset.
//   * Where the kernel predates MADV_POPULATE_WRITE (Linux < 5.14: EINVAL)
//     or the headers lack the constant, detail::touch_pages writes one zero
//     byte per page instead, which faults in the same frames.
// The destructor unmaps the whole arena.
#pragma once

#include <cstddef>

namespace ca::mem {

namespace detail {

/// Writes one zero byte into every page of [base, base + bytes), so each
/// page is faulted in writable.  `base` must be page-aligned and the range
/// must be zero already (it is for a fresh anonymous mapping).  This is the
/// populate fallback for kernels without MADV_POPULATE_WRITE.
void touch_pages(std::byte* base, std::size_t bytes) noexcept;

}  // namespace detail

class Arena {
 public:
  /// Maps and pre-faults `size` zeroed bytes on a 2 MiB boundary.
  /// Throws std::bad_alloc on failure.
  explicit Arena(std::size_t size);
  ~Arena();

  /// Moves leave the source empty: base() == nullptr, size() == 0, and
  /// contains() false for every pointer.
  Arena(Arena&& other) noexcept;
  Arena& operator=(Arena&& other) noexcept;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  [[nodiscard]] std::byte* base() noexcept { return base_; }
  [[nodiscard]] const std::byte* base() const noexcept { return base_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Pointer to the byte at `offset`.  Offset must be within the arena.
  [[nodiscard]] std::byte* at(std::size_t offset);
  [[nodiscard]] const std::byte* at(std::size_t offset) const;

  /// True iff `p` points into this arena.
  [[nodiscard]] bool contains(const void* p) const noexcept;

 private:
  void unmap() noexcept;

  std::byte* base_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace ca::mem
