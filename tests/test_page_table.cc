/** @file The PageTable contract, run through a base pointer over every
 *  organization NestedSystem can own: radix, ECPT, flat and HPT. */

#include <gtest/gtest.h>

#include <memory>
#include <type_traits>

#include "pt/ecpt.hh"
#include "pt/flat.hh"
#include "pt/hashed.hh"
#include "pt/radix.hh"
#include "tests/test_util.hh"

namespace necpt
{

namespace
{

template <class T>
std::unique_ptr<T>
makeTable(RegionAllocator &alloc)
{
    if constexpr (std::is_same_v<T, EcptPageTable>) {
        EcptConfig cfg;
        cfg.initial_slots = {256, 256, 128};
        cfg.cwt_initial_slots = {128, 128, 64};
        return std::make_unique<T>(alloc, cfg);
    } else if constexpr (std::is_same_v<T, FlatPageTable>) {
        return std::make_unique<T>(alloc, 4ULL << 30);
    } else if constexpr (std::is_same_v<T, HashedPageTable>) {
        return std::make_unique<T>(alloc, 1024);
    } else {
        return std::make_unique<T>(alloc);
    }
}

template <class T>
class PageTableContract : public ::testing::Test
{
  protected:
    BumpAllocator alloc;
    std::unique_ptr<T> table = makeTable<T>(alloc);
};

using Organizations = ::testing::Types<RadixPageTable, EcptPageTable,
                                       FlatPageTable, HashedPageTable>;
TYPED_TEST_SUITE(PageTableContract, Organizations);

} // namespace

TYPED_TEST(PageTableContract, MapLookupUnmap)
{
    PageTable *pt = this->table.get();
    EXPECT_EQ(pt->mappingCount(), 0u);
    EXPECT_GT(pt->structureBytes(), 0u);

    pt->map(0x4000'1000, 0x9000'0000, PageSize::Page4K);
    pt->map(0x4000'2000, 0x9000'5000, PageSize::Page4K);
    EXPECT_EQ(pt->mappingCount(), 2u);

    const Translation t = pt->lookup(0x4000'1234);
    ASSERT_TRUE(t.valid);
    EXPECT_EQ(t.size, PageSize::Page4K);
    EXPECT_EQ(t.apply(0x4000'1234), 0x9000'0234u);
    EXPECT_FALSE(pt->lookup(0x4000'3000).valid);

    pt->unmap(0x4000'1000, PageSize::Page4K);
    EXPECT_FALSE(pt->lookup(0x4000'1234).valid);
    EXPECT_TRUE(pt->lookup(0x4000'2000).valid);
    EXPECT_EQ(pt->mappingCount(), 1u);
}

// Every organization but the classic HPT (4KB pages only) holds huge
// pages, and the count covers every page size.
TYPED_TEST(PageTableContract, MappingCountSpansPageSizes)
{
    if constexpr (TypeParam::kind != PtKind::Hpt) {
        PageTable *pt = this->table.get();
        pt->map(0x4000'1000, 0x9000'0000, PageSize::Page4K);
        pt->map(0x8020'0000, 0xA000'0000, PageSize::Page2M);
        EXPECT_EQ(pt->mappingCount(), 2u);
        const Translation t = pt->lookup(0x8030'0000);
        ASSERT_TRUE(t.valid);
        EXPECT_EQ(t.size, PageSize::Page2M);
    }
}

TYPED_TEST(PageTableContract, PeekAgreesWithLookup)
{
    PageTable *pt = this->table.get();
    pt->map(0x4000'1000, 0x9000'0000, PageSize::Page4K);
    for (const Addr va : {Addr{0x4000'1010}, Addr{0x4000'7000}}) {
        const Translation l = pt->lookup(va);
        const Translation p = pt->peek(va);
        EXPECT_EQ(p.valid, l.valid);
        EXPECT_EQ(p.pa, l.pa);
        EXPECT_EQ(p.size, l.size);
    }
}

// Only the ECPT stores a flag word, so only it can report a missing
// mapping; the others model the downgrade as invalidate-only. Either
// way the mapping itself survives.
TYPED_TEST(PageTableContract, WriteProtectKeepsTheMapping)
{
    PageTable *pt = this->table.get();
    pt->map(0x4000'1000, 0x9000'0000, PageSize::Page4K);
    EXPECT_TRUE(pt->writeProtect(0x4000'1000, PageSize::Page4K));
    const Translation t = pt->lookup(0x4000'1000);
    ASSERT_TRUE(t.valid);
    EXPECT_EQ(t.pa, 0x9000'0000u);
    EXPECT_EQ(pt->mappingCount(), 1u);

    EXPECT_EQ(pt->writeProtect(0x4000'7000, PageSize::Page4K),
              TypeParam::kind != PtKind::Ecpt);
}

// The HPT counts probes on lookup; peek must leave the statistic
// untouched so layout dumps cannot perturb it.
TEST(PageTableContractHpt, PeekIsUncountedLookupIsCounted)
{
    BumpAllocator alloc;
    HashedPageTable hpt(alloc, 1024);
    PageTable *pt = &hpt;
    pt->map(0x4000'1000, 0x9000'0000, PageSize::Page4K);

    const double before = hpt.avgProbes();
    ASSERT_TRUE(pt->peek(0x4000'1000).valid);
    EXPECT_EQ(hpt.avgProbes(), before);
    ASSERT_TRUE(pt->lookup(0x4000'1000).valid);
    EXPECT_NE(hpt.avgProbes(), before);
}

} // namespace necpt
