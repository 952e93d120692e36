#include "mem/arena.hpp"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <vector>

#include "util/align.hpp"
#include "util/error.hpp"

namespace ca::mem {
namespace {

std::size_t page_bytes() {
  return static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

/// Number of pages of [base, base + bytes) that mincore reports resident.
std::size_t resident_pages(const void* base, std::size_t bytes) {
  std::vector<unsigned char> vec(util::ceil_div(bytes, page_bytes()));
  EXPECT_EQ(::mincore(const_cast<void*>(base), bytes, vec.data()), 0);
  std::size_t resident = 0;
  for (const unsigned char v : vec) resident += v & 1u;
  return resident;
}

TEST(Arena, BasicProperties) {
  Arena a(1 * util::MiB);
  EXPECT_EQ(a.size(), 1 * util::MiB);
  EXPECT_NE(a.base(), nullptr);
  EXPECT_TRUE(util::is_aligned(a.base(), 2 * util::MiB));
}

TEST(Arena, PrefaultZeroes) {
  for (const std::size_t size : {64 * util::KiB, 3 * util::MiB + 4 * util::KiB}) {
    Arena a(size);
    for (std::size_t i = 0; i < a.size(); i += page_bytes()) {
      ASSERT_EQ(std::to_integer<int>(*a.at(i)), 0) << "offset " << i;
    }
    EXPECT_EQ(std::to_integer<int>(*a.at(a.size() - 1)), 0);
  }
}

TEST(Arena, AtReturnsOffsets) {
  Arena a(64 * util::KiB);
  EXPECT_EQ(a.at(0), a.base());
  EXPECT_EQ(a.at(100), a.base() + 100);
}

TEST(Arena, AtOutOfRangeThrows) {
  Arena a(4096);
  EXPECT_THROW((void)a.at(4096), InternalError);
  EXPECT_THROW((void)a.at(1 << 20), InternalError);
}

TEST(Arena, Contains) {
  Arena a(4096);
  EXPECT_TRUE(a.contains(a.base()));
  EXPECT_TRUE(a.contains(a.base() + 4095));
  EXPECT_FALSE(a.contains(a.base() + 4096));
  int x = 0;
  EXPECT_FALSE(a.contains(&x));
}

TEST(Arena, WriteReadRoundTrip) {
  Arena a(64 * util::KiB);
  std::memset(a.at(1000), 0xAB, 100);
  for (std::size_t i = 1000; i < 1100; ++i) {
    EXPECT_EQ(std::to_integer<unsigned>(*a.at(i)), 0xABu);
  }
}

TEST(Arena, ZeroSizeThrows) { EXPECT_THROW(Arena a(0), InternalError); }

TEST(Arena, EveryPageResidentAfterConstruction) {
  Arena a(3 * util::MiB + 4 * util::KiB);
  EXPECT_EQ(resident_pages(a.base(), a.size()),
            util::ceil_div(a.size(), page_bytes()));
}

TEST(Arena, TouchPagesFaultsInEveryPage) {
  // A fresh mapping the kernel has not populated: the fallback path alone
  // must make every page resident, and leave it zero.
  const std::size_t bytes = 2 * util::MiB + 5 * page_bytes();
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(p, MAP_FAILED);
  auto* base = static_cast<std::byte*>(p);
  EXPECT_EQ(resident_pages(base, bytes), 0u);
  detail::touch_pages(base, bytes);
  EXPECT_EQ(resident_pages(base, bytes), bytes / page_bytes());
  for (std::size_t i = 0; i < bytes; i += page_bytes()) {
    EXPECT_EQ(std::to_integer<int>(base[i]), 0);
  }
  EXPECT_EQ(std::to_integer<int>(base[bytes - 1]), 0);
  ::munmap(p, bytes);
}

TEST(Arena, MoveTransfersOwnership) {
  Arena a(4096);
  std::byte* base = a.base();
  Arena b = std::move(a);
  EXPECT_EQ(b.base(), base);
  EXPECT_EQ(b.size(), 4096u);
  EXPECT_TRUE(b.contains(base));
  // NOLINTBEGIN(bugprone-use-after-move): the moved-from state is the test.
  EXPECT_EQ(a.base(), nullptr);
  EXPECT_EQ(a.size(), 0u);
  EXPECT_FALSE(a.contains(base));
  EXPECT_THROW((void)a.at(0), InternalError);

  Arena c(8192);
  std::byte* c_base = c.base();
  c = std::move(b);
  EXPECT_EQ(c.base(), base);
  EXPECT_EQ(c.size(), 4096u);
  EXPECT_TRUE(c.contains(base));
  EXPECT_FALSE(c.contains(c_base));
  EXPECT_EQ(b.base(), nullptr);
  EXPECT_EQ(b.size(), 0u);
  EXPECT_FALSE(b.contains(base));
  // NOLINTEND(bugprone-use-after-move)
}

}  // namespace
}  // namespace ca::mem
