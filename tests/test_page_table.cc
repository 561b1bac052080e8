/** @file The PageTable contract, run through a base pointer over every
 *  organization NestedSystem can own: radix, ECPT, flat and HPT. */

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/fault.hh"
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

/**
 * Two tables of one organization, each on its own allocator: one is
 * fed runs through mapRun(), its twin the same pages through map()
 * one at a time. Every check must find the two indistinguishable.
 */
template <class T>
class MapRunContract : public ::testing::Test
{
  protected:
    BumpAllocator run_alloc;
    BumpAllocator map_alloc;
    std::unique_ptr<T> by_run = makeTable<T>(run_alloc);
    std::unique_ptr<T> by_map = makeTable<T>(map_alloc);

    void
    mapBoth(Addr va, Addr pa, PageSize size)
    {
        by_run->map(va, pa, size);
        by_map->map(va, pa, size);
    }

    /** @p n pages from @p va onto frames from @p pa (stride 3 pages,
     *  so no two runs share a frame pattern). */
    void
    run(Addr va, Addr pa, std::size_t n, PageSize size)
    {
        std::vector<Addr> pas;
        for (std::size_t i = 0; i < n; ++i)
            pas.push_back(pa + 3 * i * pageBytes(size));
        PageTable &pt = *by_run;
        pt.mapRun(va, pas.data(), n, size);
        for (std::size_t i = 0; i < n; ++i)
            by_map->map(va + i * pageBytes(size), pas[i], size);
    }

    /** Translations of [@p lo, @p hi) at @p size stride, counts,
     *  structure and allocations; for ECPTs also every resident
     *  block's way and PTEs and every page's CWT descriptors. */
    void
    expectSame(Addr lo, Addr hi, PageSize size)
    {
        const PageTable &a = *by_run;
        const PageTable &b = *by_map;
        for (Addr va = lo; va < hi; va += pageBytes(size)) {
            SCOPED_TRACE(::testing::Message() << "va 0x" << std::hex << va);
            for (const auto &[x, y] : {std::pair{a.lookup(va), b.lookup(va)},
                                      std::pair{a.peek(va), b.peek(va)}}) {
                EXPECT_EQ(x.valid, y.valid);
                EXPECT_EQ(x.pa, y.pa);
                EXPECT_EQ(x.size, y.size);
            }
        }
        EXPECT_EQ(a.mappingCount(), b.mappingCount());
        EXPECT_EQ(a.structureBytes(), b.structureBytes());
        EXPECT_EQ(run_alloc.cursor, map_alloc.cursor);
        EXPECT_EQ(run_alloc.allocs, map_alloc.allocs);
        EXPECT_EQ(run_alloc.frees, map_alloc.frees);
        if constexpr (T::kind == PtKind::Ecpt)
            expectSameEcpt(lo, hi, size);
        if constexpr (T::kind == PtKind::Hpt)
            EXPECT_EQ(by_run->avgProbes(), by_map->avgProbes());
    }

    void
    expectSameEcpt(Addr lo, Addr hi, PageSize size)
    {
        using Block = std::tuple<std::uint64_t, int, bool,
                                 std::vector<std::uint64_t>>;
        auto blocks = [](const EcptPageTable &t, PageSize s) {
            std::vector<Block> out;
            t.tableOf(s).forEach([&](std::uint64_t key, const PteBlock &b,
                                     int way, bool in_old) {
                std::vector<std::uint64_t> raw;
                for (const Pte &pte : b.pte)
                    raw.push_back(pte.rawValue());
                out.emplace_back(key, way, in_old, raw);
            });
            return out;
        };
        for (const PageSize s : all_page_sizes) {
            const auto &x = by_run->tableOf(s);
            const auto &y = by_map->tableOf(s);
            EXPECT_EQ(blocks(*by_run, s), blocks(*by_map, s));
            EXPECT_EQ(x.slotsPerWay(), y.slotsPerWay());
            EXPECT_EQ(x.resizing(), y.resizing());
            EXPECT_EQ(x.rehashMoves(), y.rehashMoves());
            EXPECT_EQ(x.resizeCount(), y.resizeCount());
            EXPECT_EQ(x.resizeMoves(), y.resizeMoves());
        }
        for (Addr va = lo; va < hi; va += pageBytes(size)) {
            for (const PageSize level : all_page_sizes) {
                const CuckooWalkTable *x = by_run->cwtOf(level);
                const CuckooWalkTable *y = by_map->cwtOf(level);
                if (!x)
                    continue;
                SCOPED_TRACE(::testing::Message()
                             << pageLevelName(level) << " CWT, va 0x"
                             << std::hex << va);
                const auto dx = x->query(va);
                const auto dy = y->query(va);
                ASSERT_EQ(dx.has_value(), dy.has_value());
                if (!dx)
                    continue;
                EXPECT_EQ(dx->present, dy->present);
                EXPECT_EQ(dx->way, dy->way);
                EXPECT_EQ(dx->smaller_4k, dy->smaller_4k);
                EXPECT_EQ(dx->smaller_2m, dy->smaller_2m);
            }
        }
    }
};

TYPED_TEST_SUITE(MapRunContract, Organizations);
using MapRunContractEcpt = MapRunContract<EcptPageTable>;

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

// A run that starts mid-block, re-maps a page already mapped, crosses
// into blocks nobody has touched and ends mid-block.
TYPED_TEST(MapRunContract, MidBlockRunMatchesMaps)
{
    constexpr Addr base = 0x4000'0000; // flat tables cover gPA < 4GB
    constexpr std::uint64_t page = 4096;
    this->mapBoth(base + 2 * page, 0x9000'0000, PageSize::Page4K);
    this->mapBoth(base + 13 * page, 0x9100'0000, PageSize::Page4K);
    this->run(base + 3 * page, 0x9800'0000, 20, PageSize::Page4K);
    this->expectSame(base, base + 32 * page, PageSize::Page4K);

    // Huge pages batch the same way (the classic HPT holds 4KB only).
    if constexpr (TypeParam::kind != PtKind::Hpt) {
        constexpr Addr huge = 0x8000'0000;
        this->mapBoth(huge + (5ULL << 21), 0xA000'0000, PageSize::Page2M);
        this->run(huge + (3ULL << 21), 0xC000'0000, 9, PageSize::Page2M);
        this->expectSame(huge, huge + (16ULL << 21), PageSize::Page2M);
    }
}

// The run's first page is a new block whose insert lifts the load
// factor over the threshold: the elastic resize it starts migrates a
// few entries on every later update, so the rest of the block may not
// collapse into one edit.
TYPED_TEST(MapRunContract, RunStartingAResizeMatchesMaps)
{
    constexpr Addr base = 0x4000'0000;
    constexpr std::uint64_t block = 8 * 4096;
    // makeTable's ECPT: 256 slots x 3 ways at threshold 0.6 hold 460
    // blocks; the 461st starts the resize.
    constexpr int blocks = 460;
    for (int b = 0; b < blocks; ++b)
        this->mapBoth(base + b * block, 0x9000'0000 + b * 4096ULL,
                      PageSize::Page4K);
    if constexpr (TypeParam::kind == PtKind::Ecpt)
        ASSERT_FALSE(this->by_run->tableOf(PageSize::Page4K).resizing());

    this->run(base + blocks * block, 0xA000'0000, 8, PageSize::Page4K);
    if constexpr (TypeParam::kind == PtKind::Ecpt) {
        const auto &t = this->by_run->tableOf(PageSize::Page4K);
        ASSERT_TRUE(t.resizing());
        ASSERT_EQ(t.resizeCount(), 1u);
    }
    this->expectSame(base, base + (blocks + 1) * block, PageSize::Page4K);

    // Runs over blocks already resident while the migration is still
    // in flight.
    this->run(base + 4096, 0xB000'0000, 40, PageSize::Page4K);
    this->expectSame(base, base + (blocks + 1) * block, PageSize::Page4K);
}

// With a fault plan armed every update draws resize-window decisions
// and every placement kick-exhaustion ones: a batched run would draw
// fewer and shift every later decision.
TEST_F(MapRunContractEcpt, RunUnderFaultPlanMatchesMaps)
{
    FaultSpec spec;
    spec.kick_prob = 0.3;
    spec.resize_prob = 0.05;
    FaultPlan run_plan(spec, 23), map_plan(spec, 23);
    by_run->setFaultPlan(&run_plan);
    by_map->setFaultPlan(&map_plan);

    constexpr Addr base = 0x10'0000'0000ULL;
    for (int r = 0; r < 60; ++r) {
        const Addr va = base + (static_cast<Addr>(r) * 37 % 29) * 4096
            + static_cast<Addr>(r) * (16 * 4096);
        run(va, 0x9000'0000 + r * (1ULL << 20), 3 + r % 11,
            PageSize::Page4K);
    }
    expectSame(base, base + 61 * 16 * 4096, PageSize::Page4K);
    EXPECT_EQ(run_plan.counters().forced_kicks,
              map_plan.counters().forced_kicks);
    EXPECT_EQ(run_plan.counters().forced_resizes,
              map_plan.counters().forced_resizes);
    EXPECT_GT(map_plan.counters().forced_kicks, 0u);
    EXPECT_GT(map_plan.counters().forced_resizes, 0u);
}

} // namespace necpt
