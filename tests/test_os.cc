/** @file Unit tests for the OS/hypervisor substrate. */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>

#include "common/rng.hh"
#include "os/phys_pool.hh"
#include "os/system.hh"

namespace necpt
{

// ------------------------------------------------------------ PhysMemPool

TEST(PhysPool, FrameAlignment)
{
    PhysMemPool pool(0, 8ULL << 30);
    for (auto size : all_page_sizes) {
        const Addr frame = pool.allocFrame(size);
        EXPECT_EQ(frame % pageBytes(size), 0u)
            << pageSizeName(size);
    }
}

TEST(PhysPool, FrameReuseAfterFree)
{
    PhysMemPool pool(0, 1ULL << 30);
    const Addr a = pool.allocFrame(PageSize::Page4K);
    pool.freeFrame(a, PageSize::Page4K);
    EXPECT_EQ(pool.allocFrame(PageSize::Page4K), a);
}

TEST(PhysPool, RegionReuseExactSize)
{
    PhysMemPool pool(0, 1ULL << 30);
    const Addr r = pool.allocRegion(65536);
    pool.freeRegion(r, 65536);
    EXPECT_EQ(pool.allocRegion(65536), r);
    // A different size bumps fresh space.
    EXPECT_NE(pool.allocRegion(131072), r);
}

TEST(PhysPool, UsageAccounting)
{
    PhysMemPool pool(0, 1ULL << 30);
    pool.allocFrame(PageSize::Page2M);
    EXPECT_EQ(pool.usedBytes(), 2ULL << 20);
    pool.allocRegion(4096);
    EXPECT_EQ(pool.usedBytes(), (2ULL << 20) + 4096);
}

TEST(ScatteredAllocator, NodesComeFromFrameZoneAndRegister)
{
    PhysMemPool pool(0, 4ULL << 30);
    PtRegionRegistry registry;
    ScatteredPtAllocator alloc(pool, registry);
    // 4KB node allocations interleave with data frames...
    const Addr data1 = pool.allocFrame(PageSize::Page4K);
    const Addr node = alloc.allocRegion(4096);
    const Addr data2 = pool.allocFrame(PageSize::Page4K);
    EXPECT_EQ(node, data1 + 4096);
    EXPECT_EQ(data2, node + 4096);
    EXPECT_TRUE(registry.contains(node));
    // ...while large allocations are assembled from successive 4KB
    // frames (no contiguity assumed — the bump allocator just happens
    // to provide it here) and registered over their whole extent.
    const Addr big = alloc.allocRegion(1 << 20);
    EXPECT_EQ(big, data2 + 4096);
    EXPECT_TRUE(registry.contains(big));
    EXPECT_TRUE(registry.contains(big + (1 << 20) - 1));
    alloc.freeRegion(node, 4096);
    EXPECT_FALSE(registry.contains(node));
}

TEST(PhysPool, RegionZoneSeparateFromFrames)
{
    PhysMemPool pool(0, 4ULL << 30);
    const Addr frame = pool.allocFrame(PageSize::Page2M);
    const Addr region = pool.allocRegion(1 << 20);
    // Regions live in the top eighth of the pool.
    EXPECT_LT(frame, (4ULL << 30) * 7 / 8);
    EXPECT_GE(region, alignDown((4ULL << 30) * 7 / 8,
                                pageBytes(PageSize::Page1G)));
}

TEST(PtRegistry, ContainsRanges)
{
    PtRegionRegistry registry;
    registry.add(0x10000, 0x1000);
    registry.add(0x30000, 0x2000);
    EXPECT_TRUE(registry.contains(0x10000));
    EXPECT_TRUE(registry.contains(0x10FFF));
    EXPECT_FALSE(registry.contains(0x11000));
    EXPECT_TRUE(registry.contains(0x31234));
    EXPECT_FALSE(registry.contains(0x0));
    registry.remove(0x10000, 0x1000);
    EXPECT_FALSE(registry.contains(0x10000));
}

// ----------------------------------------------------------- NestedSystem

namespace
{
SystemConfig
smallSystem(PtKind guest, PtKind host, bool thp)
{
    SystemConfig cfg;
    cfg.guest_kind = guest;
    cfg.host_kind = host;
    cfg.guest_thp = thp;
    cfg.host_thp = thp;
    cfg.guest_phys_bytes = 2ULL << 30;
    cfg.host_phys_bytes = 3ULL << 30;
    cfg.guest_ecpt.initial_slots = {1024, 1024, 512};
    cfg.guest_ecpt.cwt_initial_slots = {256, 256, 128};
    cfg.host_ecpt = cfg.guest_ecpt;
    return cfg;
}
} // namespace

TEST(System, DemandPagingInstallsBothLevels)
{
    NestedSystem sys(smallSystem(PtKind::Ecpt, PtKind::Ecpt, false));
    const Addr base = sys.mmapRegion(16ULL << 20);
    EXPECT_TRUE(sys.ensureResident(base + 0x123));
    EXPECT_FALSE(sys.ensureResident(base + 0x123)); // second touch: hit
    const Translation g = sys.guestTranslate(base);
    ASSERT_TRUE(g.valid);
    const Translation full = sys.fullTranslate(base + 0x123);
    ASSERT_TRUE(full.valid);
    EXPECT_EQ(pageOffset(full.apply(base + 0x123), PageSize::Page4K),
              0x123u);
}

TEST(System, NativeModeIdentityHost)
{
    NestedSystem native([] {
        auto cfg = smallSystem(PtKind::Radix, PtKind::Radix, false);
        cfg.virtualized = false;
        return cfg;
    }());
    const Addr base = native.mmapRegion(1ULL << 20);
    native.ensureResident(base);
    const Translation g = native.guestTranslate(base);
    const Translation full = native.fullTranslate(base);
    ASSERT_TRUE(g.valid);
    EXPECT_EQ(g.pa, full.pa); // native: guest translation is final
}

TEST(System, ThpMapsHugePages)
{
    auto cfg = smallSystem(PtKind::Ecpt, PtKind::Ecpt, true);
    cfg.guest_thp_coverage = 1.0;
    cfg.host_thp_coverage = 1.0;
    NestedSystem sys(cfg);
    const Addr base = sys.mmapRegion(8ULL << 20, true);
    sys.ensureResident(base);
    const Translation g = sys.guestTranslate(base + 0x1000);
    ASSERT_TRUE(g.valid);
    EXPECT_EQ(g.size, PageSize::Page2M);
    const Translation full = sys.fullTranslate(base);
    EXPECT_EQ(full.size, PageSize::Page2M); // host also huge
}

TEST(System, ThpCoverageZeroFallsBackTo4K)
{
    auto cfg = smallSystem(PtKind::Ecpt, PtKind::Ecpt, true);
    cfg.guest_thp_coverage = 0.0;
    NestedSystem sys(cfg);
    const Addr base = sys.mmapRegion(8ULL << 20, true);
    sys.ensureResident(base);
    EXPECT_EQ(sys.guestTranslate(base).size, PageSize::Page4K);
}

TEST(System, ThpDecisionDeterministic)
{
    auto cfg = smallSystem(PtKind::Ecpt, PtKind::Ecpt, true);
    cfg.guest_thp_coverage = 0.5;
    NestedSystem a(cfg), b(cfg);
    const Addr base_a = a.mmapRegion(64ULL << 20, true);
    const Addr base_b = b.mmapRegion(64ULL << 20, true);
    ASSERT_EQ(base_a, base_b);
    for (Addr off = 0; off < (64ULL << 20); off += (2ULL << 20)) {
        a.ensureResident(base_a + off);
        b.ensureResident(base_b + off);
        EXPECT_EQ(a.guestTranslate(base_a + off).size,
                  b.guestTranslate(base_b + off).size);
    }
}

TEST(System, PageTablePagesBacked4K)
{
    auto cfg = smallSystem(PtKind::Ecpt, PtKind::Ecpt, true);
    cfg.host_thp_coverage = 1.0;
    NestedSystem sys(cfg);
    const Addr base = sys.mmapRegion(8ULL << 20);
    sys.ensureResident(base);
    // The guest ECPT's PTE table way 0 lives in a PT region...
    const Addr gecpt_gpa =
        sys.guestEcpt()->tableOf(PageSize::Page4K).wayBase(0);
    EXPECT_TRUE(sys.isPtRegion(gecpt_gpa));
    // ...and the hypervisor backs it with a 4KB page (Section 4.3)
    // even though host THP coverage is 100%.
    const Translation h = sys.hostTranslate(gecpt_gpa);
    ASSERT_TRUE(h.valid);
    EXPECT_EQ(h.size, PageSize::Page4K);
}

TEST(System, EffectivePageSizeIsMin)
{
    // Guest huge + host 4K => effective 4K TLB entry.
    auto cfg = smallSystem(PtKind::Ecpt, PtKind::Ecpt, true);
    cfg.guest_thp_coverage = 1.0;
    cfg.host_thp = false;
    NestedSystem sys(cfg);
    const Addr base = sys.mmapRegion(4ULL << 20, true);
    sys.ensureResident(base + 0x3000);
    const Translation full = sys.fullTranslate(base + 0x3000);
    ASSERT_TRUE(full.valid);
    EXPECT_EQ(full.size, PageSize::Page4K);
    EXPECT_EQ(sys.guestTranslate(base).size, PageSize::Page2M);
}

TEST(System, FaultCountsAdvance)
{
    NestedSystem sys(smallSystem(PtKind::Radix, PtKind::Radix, false));
    const Addr base = sys.mmapRegion(1ULL << 20);
    const auto g0 = sys.guestFaults();
    sys.ensureResident(base);
    sys.ensureResident(base + 4096);
    EXPECT_EQ(sys.guestFaults(), g0 + 2);
    EXPECT_GE(sys.hostFaults(), 2u);
}

TEST(System, StructureBytesReported)
{
    NestedSystem sys(smallSystem(PtKind::Ecpt, PtKind::Ecpt, false));
    const Addr base = sys.mmapRegion(1ULL << 20);
    sys.ensureResident(base);
    EXPECT_GT(sys.guestStructureBytes(), 0u);
    EXPECT_GT(sys.hostStructureBytes(), 0u);
    EXPECT_GT(sys.guestPteBytes(), 0u);
    EXPECT_GT(sys.hostPteBytes(), 0u);
}

TEST(System, MmapRegionsDisjoint)
{
    NestedSystem sys(smallSystem(PtKind::Ecpt, PtKind::Ecpt, false));
    const Addr a = sys.mmapRegion(10ULL << 20);
    const Addr b = sys.mmapRegion(10ULL << 20);
    EXPECT_GE(b, a + (10ULL << 20));
}

TEST(System, HostFlatBaseline)
{
    NestedSystem sys(smallSystem(PtKind::Radix, PtKind::Flat, false));
    ASSERT_NE(sys.hostFlat(), nullptr);
    const Addr base = sys.mmapRegion(1ULL << 20);
    sys.ensureResident(base);
    EXPECT_TRUE(sys.fullTranslate(base).valid);
}

// A guest page-table page backed before prefault lies in the region
// zone at the top of guest-physical space, so every data frame the
// prefault then allocates is below the host mapping mark yet unbacked:
// the range pass must still look each one up and fault it in.
TEST(System, PrefaultBacksUnbackedGpasBelowTheHostMark)
{
    constexpr std::uint64_t bytes = 8ULL << 20;
    for (const bool host_thp : {false, true}) {
        SCOPED_TRACE(host_thp ? "host THP" : "host 4KB");
        auto cfg = smallSystem(PtKind::Ecpt, PtKind::Ecpt, false);
        cfg.host_thp = host_thp;
        cfg.host_thp_coverage = 1.0;
        NestedSystem sys(cfg);
        NestedSystem reference(cfg);
        const Addr base = sys.mmapRegion(bytes);
        ASSERT_EQ(reference.mmapRegion(bytes), base);
        for (NestedSystem *s : {&sys, &reference}) {
            const Addr pt_gpa =
                s->guestEcpt()->tableOf(PageSize::Page4K).wayBase(0);
            ASSERT_TRUE(s->hostTranslate(pt_gpa).valid);
        }

        sys.prefaultAll();
        for (Addr va = base; va < base + bytes;
             va += pageBytes(PageSize::Page4K))
            reference.ensureResident(va);
        reference.quiesce();

        EXPECT_EQ(sys.hostFaults(), reference.hostFaults());
        for (Addr va = base; va < base + bytes;
             va += pageBytes(PageSize::Page4K)) {
            const Translation got = sys.peekFullTranslate(va);
            const Translation want = reference.peekFullTranslate(va);
            ASSERT_TRUE(got.valid) << "gVA 0x" << std::hex << va;
            ASSERT_EQ(got.pa, want.pa) << "gVA 0x" << std::hex << va;
            ASSERT_EQ(got.size, want.size) << "gVA 0x" << std::hex << va;
        }
    }
}

// ------------------------------------------------- translation memo

namespace
{

bool
sameTranslation(const Translation &a, const Translation &b)
{
    return a.valid == b.valid
           && (!a.valid || (a.pa == b.pa && a.size == b.size));
}

std::string
describe(const Translation &t)
{
    if (!t.valid)
        return "invalid";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s page at 0x%llx",
                  pageSizeName(t.size),
                  static_cast<unsigned long long>(t.pa));
    return buf;
}

/** The guest table of @p sys, whatever its organization. */
const PageTable &
guestTable(NestedSystem &sys)
{
    if (const PageTable *t = sys.guestEcpt())
        return *t;
    if (const PageTable *t = sys.guestRadix())
        return *t;
    return *sys.guestHpt();
}

enum MemoOp
{
    OpResident,
    OpGuest,
    OpFull,
    OpMigrate,
    OpBalloon,
    OpDemote,
    OpPromote,
    OpProtect,
    OpQuiesce,
    num_memo_ops
};

/**
 * A seeded interleaving of demand faults, guest and full translations
 * and every mutation funnel over 96 gVA pages of six 64MB THP regions
 * (pages 2MB apart share a memo index, so entries are evicted as
 * well as outdated). Every answer is checked against the tables read
 * without the memo: guestTranslate() against the guest table's peek,
 * fullTranslate() against peekFullTranslate(). After each mutation
 * the mutated gVA is translated again at once, the read a memo would
 * answer stale. With @p direct the guest and full translations are
 * made the way they were before the memo existed (table lookups and
 * hostTranslate()), for a twin to compare counted statistics with.
 * @p done counts the calls that changed or answered something.
 */
void
runMemoInterleaving(NestedSystem &sys, bool direct, std::uint64_t seed,
                    std::array<int, num_memo_ops> &done)
{
    constexpr std::uint64_t region = 64ULL << 20;
    const Addr base = sys.mmapRegion(6 * region);
    auto guest = [&](Addr va) {
        return direct ? guestTable(sys).lookup(va)
                      : sys.guestTranslate(va);
    };
    auto full = [&](Addr va) -> Translation {
        if (!direct)
            return sys.fullTranslate(va);
        const Translation g = guestTable(sys).lookup(va);
        if (!g.valid || !sys.virtualized())
            return g;
        const Translation h = sys.hostTranslate(g.apply(va));
        const Translation peek = sys.peekFullTranslate(va);
        return h.valid ? peek : Translation{};
    };
    auto checkGuest = [&](Addr va, int step) {
        const Translation got = guest(va);
        const Translation want = guestTable(sys).peek(va);
        ASSERT_TRUE(sameTranslation(got, want))
            << "step " << step << " guestTranslate(0x" << std::hex << va
            << ") gave " << describe(got) << ", the table holds "
            << describe(want);
        done[OpGuest] += got.valid;
    };
    auto checkFull = [&](Addr va, int step) {
        const Translation got = full(va);
        const Translation want = sys.peekFullTranslate(va);
        ASSERT_TRUE(sameTranslation(got, want))
            << "step " << step << " fullTranslate(0x" << std::hex << va
            << ") gave " << describe(got) << ", the tables hold "
            << describe(want);
        done[OpFull] += got.valid;
    };

    Rng rng(seed);
    for (int step = 0; step < 3000; ++step) {
        const Addr va = base + rng.below(6) * region
                        + rng.below(2) * pageBytes(PageSize::Page2M)
                        + rng.below(8) * pageBytes(PageSize::Page4K)
                        + rng.below(pageBytes(PageSize::Page4K));
        const std::uint64_t pick = rng.below(20);
        MemoOp op = OpResident;
        if (pick >= 6)
            op = pick < 10 ? OpGuest
                 : pick < 14 ? OpFull
                             : static_cast<MemoOp>(OpMigrate + pick - 14);
        bool changed = false;
        switch (op) {
          case OpResident:
            sys.ensureResident(va);
            ASSERT_TRUE(sys.peekFullTranslate(va).valid)
                << "step " << step << " gVA 0x" << std::hex << va;
            ++done[OpResident];
            break;
          case OpGuest:
            ASSERT_NO_FATAL_FAILURE(checkGuest(va, step));
            break;
          case OpFull:
            ASSERT_NO_FATAL_FAILURE(checkFull(va, step));
            break;
          case OpMigrate:
            changed = sys.migratePage(va);
            break;
          case OpBalloon:
            changed = sys.balloonOut(va).ok;
            break;
          case OpDemote:
            changed = sys.thpDemote(va) > 0;
            break;
          case OpPromote:
            changed = sys.thpPromote(va) > 0;
            break;
          case OpProtect:
            changed = sys.writeProtectPage(va);
            break;
          case OpQuiesce:
            sys.quiesce();
            changed = true;
            break;
          case num_memo_ops:
            break;
        }
        if (op == OpResident || op == OpGuest || op == OpFull)
            continue;
        done[op] += changed;
        ASSERT_NO_FATAL_FAILURE(checkGuest(va, step));
        ASSERT_NO_FATAL_FAILURE(checkFull(va, step));
    }
}

} // namespace

class TranslationMemo : public ::testing::TestWithParam<PtKind>
{
};

TEST_P(TranslationMemo, AgreesWithTheTablesUnderEveryMutationFunnel)
{
    auto cfg = smallSystem(GetParam(), GetParam(), true);
    cfg.guest_thp_coverage = 0.5;
    cfg.host_thp_coverage = 0.5;
    NestedSystem sys(cfg);
    std::array<int, num_memo_ops> done{};
    ASSERT_NO_FATAL_FAILURE(runMemoInterleaving(sys, false, 0x3E30, done));
    // Every funnel really changed the tables at least once.
    for (int op = OpResident; op < num_memo_ops; ++op)
        EXPECT_GT(done[op], 0) << "op " << op;
}

INSTANTIATE_TEST_SUITE_P(Nested, TranslationMemo,
                         ::testing::Values(PtKind::Ecpt, PtKind::Radix),
                         [](const ::testing::TestParamInfo<PtKind> &p) {
                             return p.param == PtKind::Ecpt
                                        ? std::string("Ecpt")
                                        : std::string("Radix");
                         });

// HPT lookups are counted statistics (avgProbes), so the memo stays
// off there: the public calls must count exactly the lookups a twin
// makes straight through the tables.
TEST(TranslationMemoHpt, ProbeStatisticsUnchanged)
{
    const auto cfg = smallSystem(PtKind::Hpt, PtKind::Hpt, false);
    NestedSystem sys(cfg);
    NestedSystem twin(cfg);
    std::array<int, num_memo_ops> done{}, twin_done{};
    ASSERT_NO_FATAL_FAILURE(runMemoInterleaving(sys, false, 0x4B7, done));
    ASSERT_NO_FATAL_FAILURE(
        runMemoInterleaving(twin, true, 0x4B7, twin_done));
    EXPECT_EQ(done, twin_done);
    EXPECT_GT(done[OpFull], 0);
    EXPECT_EQ(sys.guestHpt()->avgProbes(), twin.guestHpt()->avgProbes());
    EXPECT_EQ(sys.hostHpt()->avgProbes(), twin.hostHpt()->avgProbes());
}

} // namespace necpt
