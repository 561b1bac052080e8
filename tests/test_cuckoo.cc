/** @file Unit + property tests for the elastic cuckoo hash table. */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>

#include "pt/cuckoo.hh"
#include "tests/test_util.hh"

namespace necpt
{

namespace
{

using Table = ElasticCuckooTable<std::uint64_t>;

CuckooConfig
tinyConfig(std::uint64_t slots = 64, int ways = 3)
{
    CuckooConfig cfg;
    cfg.ways = ways;
    cfg.initial_slots = slots;
    cfg.slot_bytes = 64;
    return cfg;
}

} // namespace

TEST(Cuckoo, InsertFindErase)
{
    BumpAllocator alloc;
    Table table(alloc, tinyConfig());
    table.insert(42, 4200);
    auto hit = table.find(42);
    ASSERT_TRUE(hit);
    EXPECT_EQ(*hit.value, 4200u);
    EXPECT_GE(hit.way, 0);
    EXPECT_LT(hit.way, 3);
    EXPECT_TRUE(table.erase(42));
    EXPECT_FALSE(table.find(42));
    EXPECT_FALSE(table.erase(42));
}

TEST(Cuckoo, UpdateInPlace)
{
    BumpAllocator alloc;
    Table table(alloc, tinyConfig());
    table.insert(7, 1);
    table.insert(7, 2);
    EXPECT_EQ(*table.find(7).value, 2u);
    EXPECT_EQ(table.size(), 1u);
}

TEST(Cuckoo, SlotAddrWithinWayRegion)
{
    BumpAllocator alloc(0x100000);
    Table table(alloc, tinyConfig(64, 3));
    table.insert(99, 1);
    const auto hit = table.find(99);
    const Addr base = table.wayBase(hit.way);
    EXPECT_GE(hit.slot_addr, base);
    EXPECT_LT(hit.slot_addr, base + 64 * table.slotBytes());
}

TEST(Cuckoo, ProbeAddrsCoverResidentSlot)
{
    BumpAllocator alloc;
    Table table(alloc, tinyConfig());
    for (std::uint64_t k = 0; k < 50; ++k)
        table.insert(k, k * 10);
    for (std::uint64_t k = 0; k < 50; ++k) {
        std::vector<Addr> probes;
        table.probeAddrs(k, (1u << table.numWays()) - 1, probes);
        const auto hit = table.find(k);
        ASSERT_TRUE(hit);
        EXPECT_NE(std::find(probes.begin(), probes.end(), hit.slot_addr),
                  probes.end());
    }
}

TEST(Cuckoo, ProbeMaskRestrictsWays)
{
    BumpAllocator alloc;
    Table table(alloc, tinyConfig(64, 3));
    std::vector<Addr> probes;
    table.probeAddrs(5, 0b010, probes);
    EXPECT_EQ(probes.size(), 1u); // one way, no resize in flight
    probes.clear();
    table.probeAddrs(5, 0b111, probes);
    EXPECT_EQ(probes.size(), 3u);
}

TEST(Cuckoo, DisplacementsReported)
{
    BumpAllocator alloc;
    CuckooConfig cfg = tinyConfig(32, 2);
    cfg.resize_threshold = 0.95; // force collisions before resizing
    Table table(alloc, cfg);
    std::map<std::uint64_t, int> way_of;
    auto record = [&](std::uint64_t key, int way, const std::uint64_t &) {
        way_of[key] = way;
    };
    table.setMoveCallback(record);
    for (std::uint64_t k = 0; k < 40; ++k)
        table.insert(k, k);
    // Every present key's callback-reported way matches reality.
    for (std::uint64_t k = 0; k < 40; ++k) {
        const auto hit = table.find(k);
        ASSERT_TRUE(hit);
        if (!hit.in_old_generation) {
            EXPECT_EQ(way_of[k], hit.way) << "key " << k;
        }
    }
    EXPECT_GT(table.rehashMoves(), 0u);
}

TEST(Cuckoo, ElasticResizeTriggersAtThreshold)
{
    BumpAllocator alloc;
    Table table(alloc, tinyConfig(32, 3));
    std::uint64_t k = 0;
    while (!table.resizing() && k < 1000)
        table.insert(k++, k);
    EXPECT_TRUE(table.resizing());
    // Load factor at trigger is near the 0.6 threshold.
    EXPECT_GT(static_cast<double>(k) / (32.0 * 3), 0.5);
    // During resize, probes cover both generations.
    std::vector<Addr> probes;
    table.probeAddrs(0, 0b111, probes);
    EXPECT_EQ(probes.size(), 6u);
}

TEST(Cuckoo, NoEntryLostAcrossResizes)
{
    BumpAllocator alloc;
    Table table(alloc, tinyConfig(16, 3));
    constexpr std::uint64_t n = 5000;
    for (std::uint64_t k = 0; k < n; ++k)
        table.insert(k * 7 + 1, k);
    EXPECT_GT(table.resizeCount(), 0u);
    for (std::uint64_t k = 0; k < n; ++k) {
        auto hit = table.find(k * 7 + 1);
        ASSERT_TRUE(hit) << "key " << k * 7 + 1;
        EXPECT_EQ(*hit.value, k);
    }
    EXPECT_EQ(table.size(), n);
}

TEST(Cuckoo, GradualMigrationDrains)
{
    BumpAllocator alloc;
    Table table(alloc, tinyConfig(16, 3));
    std::uint64_t k = 0;
    while (!table.resizing())
        table.insert(k++, 0);
    // Keep inserting: migration progresses a few entries per insert
    // and eventually the retiring generation is freed.
    std::uint64_t inserts = 0;
    while (table.resizing() && inserts < 10000) {
        table.insert(100000 + inserts, 0);
        ++inserts;
        if (table.loadFactor() > 0.55)
            break; // next resize imminent; stop the experiment
    }
    EXPECT_GT(alloc.frees, 0);
}

TEST(Cuckoo, FinishResizeForcesCompletion)
{
    BumpAllocator alloc;
    Table table(alloc, tinyConfig(16, 3));
    std::uint64_t k = 0;
    while (!table.resizing())
        table.insert(k++, 0);
    table.finishResize();
    EXPECT_FALSE(table.resizing());
    for (std::uint64_t i = 0; i < k; ++i)
        EXPECT_TRUE(table.find(i));
}

TEST(Cuckoo, ResizeMovesCounted)
{
    BumpAllocator alloc;
    Table table(alloc, tinyConfig(16, 3));
    for (std::uint64_t k = 0; k < 200; ++k)
        table.insert(k, k);
    table.finishResize();
    EXPECT_GT(table.resizeMoves(), 0u);
}

TEST(Cuckoo, StructureBytesMatchGeometry)
{
    BumpAllocator alloc;
    Table table(alloc, tinyConfig(64, 3));
    EXPECT_EQ(table.structureBytes(), 64u * 3 * 64);
}

/** The Section-4.4 staleness argument: inserts can relocate *other*
 *  keys, so a cached pointer to a slot would go stale. */
TEST(Cuckoo, InsertsRelocateOtherKeys)
{
    BumpAllocator alloc;
    CuckooConfig cfg = tinyConfig(64, 2);
    cfg.resize_threshold = 0.95;
    Table table(alloc, cfg);
    // Fill densely, recording each key's slot address.
    std::map<std::uint64_t, Addr> addr_of;
    for (std::uint64_t k = 0; k < 100; ++k) {
        table.insert(k, k);
        for (std::uint64_t j = 0; j <= k; ++j) {
            auto hit = table.find(j);
            if (hit)
                addr_of[j] = hit.slot_addr;
        }
    }
    // At least one previously-placed key moved at some point: its
    // final address differs from some historical one. Detect via the
    // rehash counter, which only counts displacements of *resident*
    // entries.
    EXPECT_GT(table.rehashMoves(), 0u);
}

/** Parameterized sweep over ways/slots: membership is exact. */
class CuckooGeometry
    : public ::testing::TestWithParam<std::pair<int, std::uint64_t>>
{};

TEST_P(CuckooGeometry, MembershipExact)
{
    const auto [ways, slots] = GetParam();
    BumpAllocator alloc;
    Table table(alloc, tinyConfig(slots, ways));
    std::set<std::uint64_t> present;
    Rng rng(static_cast<std::uint64_t>(ways) * 1000 + slots);
    for (int op = 0; op < 3000; ++op) {
        const std::uint64_t key = rng.below(500);
        if (rng.chance(0.7)) {
            table.insert(key, key);
            present.insert(key);
        } else {
            table.erase(key);
            present.erase(key);
        }
    }
    for (std::uint64_t key = 0; key < 500; ++key)
        EXPECT_EQ(static_cast<bool>(table.find(key)),
                  present.count(key) > 0)
            << "key " << key;
    EXPECT_EQ(table.size(), present.size());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CuckooGeometry,
    ::testing::Values(std::make_pair(2, 32ULL),
                      std::make_pair(2, 128ULL),
                      std::make_pair(3, 16ULL),
                      std::make_pair(3, 64ULL),
                      std::make_pair(4, 64ULL)));

// ------------------------------------------- single-probe update path

/** Fill @p table until an elastic resize is in flight. */
std::uint64_t
fillUntilResizing(Table &table, std::uint64_t first = 1)
{
    std::uint64_t k = first;
    while (!table.resizing())
        table.insert(k, k), ++k;
    return k;
}

TEST(Cuckoo, UpdateReportsTheSettledWay)
{
    BumpAllocator alloc;
    CuckooConfig cfg = tinyConfig(32, 2);
    cfg.resize_threshold = 0.95; // long displacement chains
    Table table(alloc, cfg);
    for (std::uint64_t k = 0; k < 400; ++k) {
        const int way = table.insert(k * 7919, k);
        ASSERT_EQ(way, table.wayOf(k * 7919)) << "key " << k;
        // Overwrite in place: same answer, new payload.
        ASSERT_EQ(table.update(k * 7919, [](std::uint64_t &v) { v += 1; }),
                  table.wayOf(k * 7919));
        ASSERT_EQ(*table.find(k * 7919).value, k + 1);
    }
    EXPECT_GT(table.rehashMoves(), 0u);
    EXPECT_GT(table.resizeCount(), 0u);
}

// The one migrateSome() step of an update can move the very key being
// updated out of the retiring generation: the way reported must be
// where it landed, not where the probe found it. Migration scans the
// old generation way-major, the order forEach visits it, so updating
// the first old entry makes the same call migrate it.
TEST(Cuckoo, UpdateFollowsAMigrationOfItsOwnKey)
{
    BumpAllocator alloc;
    Table table(alloc, tinyConfig(32, 3));
    fillUntilResizing(table);
    int way_changes = 0;
    while (table.resizing()) {
        std::uint64_t front = 0;
        int old_way = -1;
        table.forEach(
            [&](std::uint64_t key, std::uint64_t, int way, bool in_old) {
                if (in_old && old_way < 0) {
                    front = key;
                    old_way = way;
                }
            });
        if (old_way < 0)
            break;
        const int way =
            table.update(front, [](std::uint64_t &v) { v = 99; });
        const auto hit = table.find(front);
        ASSERT_TRUE(hit);
        ASSERT_FALSE(hit.in_old_generation) << "key " << front;
        ASSERT_EQ(way, hit.way) << "key " << front;
        ASSERT_EQ(*hit.value, 99u);
        way_changes += way != old_way;
    }
    // Some migrations landed in another way than the key held before.
    EXPECT_GT(way_changes, 0);
}

TEST(Cuckoo, EraseRemovesFromBothGenerationsMidResize)
{
    BumpAllocator alloc;
    Table table(alloc, tinyConfig(32, 3));
    // One insert past the resize start: the live generation holds the
    // new key plus the first migrated entries, the old one the rest.
    std::uint64_t end = fillUntilResizing(table);
    table.insert(end, end), ++end;
    std::vector<std::uint64_t> in_old, in_live;
    table.forEach([&](std::uint64_t key, std::uint64_t, int, bool old) {
        (old ? in_old : in_live).push_back(key);
    });
    ASSERT_GE(in_old.size(), 2u);
    ASSERT_GE(in_live.size(), 1u);

    const std::uint64_t size_before = table.size();
    const std::vector<std::uint64_t> victims = {in_old.back(), in_old[0],
                                                in_live[0]};
    for (const std::uint64_t key : victims) {
        EXPECT_TRUE(table.erase(key)) << "key " << key;
        EXPECT_FALSE(table.find(key)) << "key " << key;
        EXPECT_FALSE(table.erase(key)) << "key " << key;
    }
    EXPECT_TRUE(table.resizing());
    EXPECT_EQ(table.size(), size_before - victims.size());
    EXPECT_EQ(table.eraseCount(), victims.size());

    table.finishResize();
    for (std::uint64_t k = 1; k < end; ++k) {
        const bool erased =
            std::find(victims.begin(), victims.end(), k) != victims.end();
        EXPECT_EQ(static_cast<bool>(table.find(k)), !erased) << "key " << k;
    }
}

// ------------------------------------------- host storage contract

// A payload lives at one host address from insert to erase: kicks and
// elastic-resize migrations move the key's cell, never the payload.
TEST(CuckooStorage, FindValueSurvivesKicksAndResizes)
{
    BumpAllocator alloc;
    CuckooConfig cfg = tinyConfig(32, 2);
    cfg.resize_threshold = 0.95; // long displacement chains
    Table table(alloc, cfg);
    constexpr std::uint64_t watched = 5;
    table.insert(watched, 5000);
    const auto first = table.find(watched);
    ASSERT_TRUE(first);
    std::uint64_t *const payload = first.value;

    bool kicked = false;
    std::uint64_t k = 100;
    for (; !kicked && k < 100 + 60; ++k) {
        table.insert(k, k);
        const auto hit = table.find(watched);
        ASSERT_TRUE(hit);
        kicked = hit.slot_addr != first.slot_addr;
        ASSERT_EQ(hit.value, payload) << "after inserting key " << k;
    }
    ASSERT_TRUE(kicked) << "no insert displaced the watched key";

    const std::uint64_t resizes = table.resizeCount();
    while (table.resizeCount() == resizes)
        table.insert(k, k), ++k;
    table.finishResize();
    const auto moved = table.find(watched);
    ASSERT_TRUE(moved);
    EXPECT_NE(moved.slot_addr, first.slot_addr);
    EXPECT_EQ(moved.value, payload);
    EXPECT_EQ(*moved.value, 5000u);
}

// Erased payloads are recycled through the pool's free list; a key
// that receives one must start from a value-initialized payload.
TEST(CuckooStorage, ReinsertAfterEraseStartsFromAFreshPayload)
{
    struct Block
    {
        std::array<std::uint64_t, 8> pte{};
    };
    BumpAllocator alloc;
    ElasticCuckooTable<Block> table(alloc, tinyConfig());
    auto fill = [](Block &b) { b.pte.fill(0xDEAD); };
    for (std::uint64_t k = 1; k <= 20; ++k)
        table.update(k, fill);

    for (std::uint64_t k = 1; k <= 20; k += 2)
        ASSERT_TRUE(table.erase(k));
    // Same keys back, and new keys that take the other freed payloads.
    for (std::uint64_t k : {1ULL, 3ULL, 1001ULL, 1002ULL, 1003ULL}) {
        Block seen;
        seen.pte.fill(1);
        table.update(k, [&](Block &b) {
            seen = b;
            b.pte[0] = k;
        });
        for (const std::uint64_t pte : seen.pte)
            ASSERT_EQ(pte, 0u) << "stale payload handed to key " << k;
        EXPECT_EQ(table.find(k).value->pte[0], k);
    }
    // The survivors kept theirs.
    for (std::uint64_t k = 2; k <= 20; k += 2)
        EXPECT_EQ(table.find(k).value->pte[7], 0xDEADu) << "key " << k;
}

// forEach walks the live generation, then the retiring one; each
// way-major, in slot-index order. Migration and the CWT audits read
// the table in that order.
TEST(CuckooStorage, ForEachVisitsLiveThenOldWayMajorBySlot)
{
    BumpAllocator alloc;
    Table table(alloc, tinyConfig(32, 3));
    std::uint64_t end = fillUntilResizing(table);
    table.insert(end, end), ++end;
    ASSERT_TRUE(table.resizing());

    struct Visit
    {
        bool in_old;
        int way;
        Addr slot_addr;
    };
    std::vector<Visit> visits;
    table.forEach([&](std::uint64_t key, std::uint64_t value, int way,
                      bool in_old) {
        EXPECT_EQ(value, key);
        const auto hit = table.find(key);
        ASSERT_TRUE(hit);
        EXPECT_EQ(hit.in_old_generation, in_old);
        EXPECT_EQ(hit.way, way);
        visits.push_back({in_old, way, hit.slot_addr});
    });
    ASSERT_EQ(visits.size(), table.size());
    bool saw_old = false;
    for (std::size_t i = 1; i < visits.size(); ++i) {
        const Visit &a = visits[i - 1];
        const Visit &b = visits[i];
        saw_old |= b.in_old;
        ASSERT_LE(a.in_old, b.in_old) << "visit " << i;
        if (a.in_old != b.in_old)
            continue;
        ASSERT_LE(a.way, b.way) << "visit " << i;
        if (a.way == b.way) {
            ASSERT_LT(a.slot_addr, b.slot_addr) << "visit " << i;
        }
    }
    EXPECT_TRUE(saw_old);
}

// Injected kick exhaustion parks entries on the homeless list; they
// carry their payload refs there and back.
TEST(CuckooStorage, ParkedEntriesKeepTheirPayloads)
{
    BumpAllocator alloc;
    CuckooConfig cfg = tinyConfig(64, 3);
    Table table(alloc, cfg);
    FaultSpec spec;
    spec.kick_prob = 0.3;
    FaultPlan plan(spec, 23);
    table.setFaultPlan(&plan);

    std::map<std::uint64_t, std::uint64_t *> payload_of;
    for (std::uint64_t k = 1; k <= 250; ++k) {
        table.insert(k * 13, k * 100);
        ASSERT_EQ(table.homelessCount(), 0u) << "after key " << k;
        payload_of[k * 13] = table.find(k * 13).value;
        for (const auto &[key, payload] : payload_of) {
            const auto hit = table.find(key);
            ASSERT_TRUE(hit) << "key " << key;
            ASSERT_EQ(hit.value, payload) << "key " << key;
            ASSERT_EQ(*hit.value, key / 13 * 100) << "key " << key;
        }
    }
    EXPECT_GT(table.injectedKickFailures(), 0u);
}

TEST(CuckooStorage, HostBytesCountCellsAndPoolChunks)
{
    BumpAllocator alloc;
    Table table(alloc, tinyConfig(64, 3));
    const std::uint64_t empty = table.hostBytes();
    EXPECT_EQ(empty, 64u * 3 * 16); // cells only: no payload yet
    table.insert(1, 1);
    EXPECT_GT(table.hostBytes(), empty);
}

} // namespace necpt
