#include "mem/arena.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <new>
#include <utility>

#include "util/align.hpp"
#include "util/error.hpp"

namespace ca::mem {

namespace {

constexpr std::size_t kHugePage = 2 * util::MiB;

std::size_t page_size() noexcept {
  static const std::size_t page =
      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

/// Faults in every page of the fresh mapping [base, base + bytes).
/// Returns false if the kernel refused for a reason other than lacking
/// MADV_POPULATE_WRITE (out of memory).  On huge pages the kernel populate
/// and touch_pages cost the same; on 4 KiB pages (THP off) the kernel's one
/// walk beats a user fault per page (perfbench setup_s 0.66 s vs 0.94 s on
/// a 4-vCPU Xeon VM).
bool populate(std::byte* base, std::size_t bytes) noexcept {
#ifdef MADV_POPULATE_WRITE
  if (::madvise(base, bytes, MADV_POPULATE_WRITE) == 0) return true;
  if (errno != EINVAL) return false;
#endif
  detail::touch_pages(base, bytes);
  return true;
}

}  // namespace

void detail::touch_pages(std::byte* base, std::size_t bytes) noexcept {
  const std::size_t page = page_size();
  for (std::size_t off = 0; off < bytes; off += page) {
    // volatile: the store must happen even though it writes the value the
    // page already reads as.
    *static_cast<volatile std::byte*>(base + off) = std::byte{0};
  }
}

Arena::Arena(std::size_t size) {
  CA_CHECK(size > 0, "arena size must be positive");
  const std::size_t page = page_size();
  const std::size_t rounded = util::align_up(size, page);
  // mmap returns page-aligned addresses, so `kHugePage - page` bytes of
  // slack always contain a huge-page boundary with `rounded` bytes after it.
  const std::size_t reserve = rounded + kHugePage - page;
  void* raw = ::mmap(nullptr, reserve, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const auto raw_addr = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t addr = util::align_up(raw_addr, kHugePage);
  const std::size_t head = addr - raw_addr;
  const std::size_t tail = reserve - head - rounded;
  if (head > 0) ::munmap(raw, head);
  if (tail > 0) ::munmap(reinterpret_cast<void*>(addr + rounded), tail);

  base_ = reinterpret_cast<std::byte*>(addr);
  size_ = size;
  // Advisory: fails only where THP is compiled out, and then the arena is
  // simply backed by base pages.
  (void)::madvise(base_, rounded, MADV_HUGEPAGE);
  if (!populate(base_, rounded)) {
    unmap();
    throw std::bad_alloc();
  }
}

Arena::~Arena() { unmap(); }

Arena::Arena(Arena&& other) noexcept
    : base_(std::exchange(other.base_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

Arena& Arena::operator=(Arena&& other) noexcept {
  if (this != &other) {
    unmap();
    base_ = std::exchange(other.base_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

void Arena::unmap() noexcept {
  if (base_ != nullptr) ::munmap(base_, util::align_up(size_, page_size()));
  base_ = nullptr;
  size_ = 0;
}

std::byte* Arena::at(std::size_t offset) {
  CA_CHECK(offset < size_, "arena offset out of range");
  return base_ + offset;
}

const std::byte* Arena::at(std::size_t offset) const {
  CA_CHECK(offset < size_, "arena offset out of range");
  return base_ + offset;
}

bool Arena::contains(const void* p) const noexcept {
  const auto* b = static_cast<const std::byte*>(p);
  return b >= base_ && b < base_ + size_;
}

}  // namespace ca::mem
