/**
 * @file
 * Golden determinism pin for the timing core.
 *
 * Runs a short Nested-ECPT simulation at mlp=1 (serialized walks, the
 * legacy path) and mlp=4 (overlapped walk machines, the memory pump)
 * and compares the full scalar metric snapshot — every counter, rate,
 * and histogram summary the registry exports, plus the headline
 * SimResult fields — byte for byte against a checked-in golden. Any
 * change to simulated behavior (cache replacement, hashing, probe
 * generation, event ordering) shows up here as a text diff, which
 * keeps hot-path "optimizations" honest about being pure refactors.
 *
 * A second family of goldens covers the functional layer (demand
 * faulting and page-table construction) of every organization: the
 * same snapshot plus a digest of the final page-table layout — table
 * slots, ways, CWT descriptors and chunk addresses, radix node
 * frames, HPT probe statistics, every translation, and the next frame
 * each pool would hand out. A fault-in rewrite that moves a single
 * frame or slot shows up there even when no timed access touches it.
 *
 * After an *intentional* behavior change, regenerate with
 *   NECPT_UPDATE_GOLDEN=1 ctest -R GoldenDeterminism
 * (writes tests/golden/ in the source tree) and commit the new files
 * alongside the change that explains them.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "coherence/churn.hh"
#include "common/fault.hh"
#include "common/metrics.hh"
#include "os/system.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"

namespace necpt
{

namespace
{

/** One golden run: a configuration, the application, its timing
 *  knobs, and whether the page-table layout digest rides along with
 *  the scalar snapshot. */
struct GoldenRun
{
    ConfigId config = ConfigId::NestedEcpt;
    std::string app = "GUPS";
    int mlp = 1;
    std::string churn;
    bool coalesce = false;
    std::string faults;
    bool layout = false;
};

/** Append "name value" with %.17g: the golden pins the bits. */
void
emitValue(std::ostringstream &out, const std::string &name, double v)
{
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", v);
    out << name << " " << value << "\n";
}

/** FNV-1a over 64-bit words. */
struct Digest
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    add(std::uint64_t word)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (word >> (8 * i)) & 0xFF;
            h *= 0x100000001b3ULL;
        }
    }

    void
    add(const Translation &t)
    {
        add(t.valid ? t.pa : invalid_addr);
        add(static_cast<std::uint64_t>(t.size) | (t.valid ? 0x10 : 0));
    }
};

void
emitDigest(std::ostringstream &out, const std::string &name,
           const Digest &d)
{
    char value[32];
    std::snprintf(value, sizeof value, "%016llx",
                  static_cast<unsigned long long>(d.h));
    out << name << " " << value << "\n";
}

/** Tables, CWT descriptors (every level, with the chunk line a refill
 *  would fetch) and way bases of one ECPT. */
void
renderEcpt(std::ostringstream &out, const std::string &who,
           const EcptPageTable &ecpt)
{
    for (const PageSize size : all_page_sizes) {
        const auto &table = ecpt.tableOf(size);
        const std::string p =
            "layout." + who + ".ecpt." + pageLevelName(size) + ".";
        Digest slots, cwt;
        std::vector<Addr> lines;
        for (int w = 0; w < table.numWays(); ++w)
            slots.add(table.wayBase(w));
        table.forEach([&](std::uint64_t key, const PteBlock &block,
                          int way, bool in_old) {
            slots.add(key);
            slots.add(static_cast<std::uint64_t>(way) | (in_old ? 8 : 0));
            for (const Pte &pte : block.pte)
                slots.add(pte.rawValue());
            const Addr block_base = (key << 3) << pageShift(size);
            for (int j = 0; j < PteBlock::entries; ++j) {
                if (!block.pte[j].present())
                    continue;
                const Addr va =
                    block_base + (static_cast<Addr>(j) << pageShift(size));
                for (const PageSize level : all_page_sizes) {
                    const CuckooWalkTable *c = ecpt.cwtOf(level);
                    if (!c)
                        continue;
                    const auto d = c->query(va);
                    cwt.add(!d ? 0xFF
                               : (d->present | d->way << 1
                                  | d->smaller_4k << 3
                                  | d->smaller_2m << 4));
                    lines.clear();
                    c->entryProbeAddrs(va, lines);
                    for (const Addr a : lines)
                        cwt.add(a);
                }
            }
        });
        emitValue(out, p + "slots_per_way",
                  static_cast<double>(table.slotsPerWay()));
        emitValue(out, p + "resizing", table.resizing() ? 1 : 0);
        emitDigest(out, p + "slots", slots);
        emitDigest(out, p + "cwt", cwt);
        if (const CuckooWalkTable *c = ecpt.cwtOf(size))
            emitValue(out, p + "cwt_chunks",
                      static_cast<double>(c->entryCount()));
    }
}

void
addWalk(Digest &d, const Translation &t,
        const std::vector<RadixStep> &steps)
{
    d.add(t);
    for (const RadixStep &s : steps) {
        d.add(s.entry_addr);
        d.add(static_cast<std::uint64_t>(s.level) | (s.leaf ? 0x10 : 0));
    }
}

/**
 * Digest of the functional machine state after a run: fault and
 * mutation counters, structure accounting, the per-organization table
 * layout, every 4KB page's final translation, and the frame each pool
 * would allocate next (which pins every allocation made before it).
 * Reads only stat-free paths (peekFullTranslate, HPT avgProbes is
 * read before anything else could count).
 */
std::string
renderLayout(NestedSystem &sys)
{
    std::ostringstream out;
    if (HashedPageTable *hpt = sys.guestHpt())
        emitValue(out, "layout.guest.hpt.avg_probes", hpt->avgProbes());
    if (HashedPageTable *hpt = sys.hostHpt())
        emitValue(out, "layout.host.hpt.avg_probes", hpt->avgProbes());
    emitValue(out, "layout.guest_faults",
              static_cast<double>(sys.guestFaults()));
    emitValue(out, "layout.host_faults",
              static_cast<double>(sys.hostFaults()));
    emitValue(out, "layout.mutation_stamp",
              static_cast<double>(sys.mutationStamp()));
    emitValue(out, "layout.guest_structure_bytes",
              static_cast<double>(sys.guestStructureBytes()));
    emitValue(out, "layout.host_structure_bytes",
              static_cast<double>(sys.hostStructureBytes()));
    emitValue(out, "layout.guest_pte_bytes",
              static_cast<double>(sys.guestPteBytes()));
    emitValue(out, "layout.host_pte_bytes",
              static_cast<double>(sys.hostPteBytes()));
    if (const EcptPageTable *e = sys.guestEcpt())
        renderEcpt(out, "guest", *e);
    if (const EcptPageTable *e = sys.hostEcpt())
        renderEcpt(out, "host", *e);

    Digest translations, radix;
    std::vector<RadixStep> steps;
    for (std::size_t i = 0; i < sys.vmaCount(); ++i) {
        const auto [base, bytes] = sys.vmaRange(i);
        for (Addr va = base; va < base + bytes;
             va += pageBytes(PageSize::Page4K)) {
            const Translation t = sys.peekFullTranslate(va);
            translations.add(t);
            // Radix node frames: one walk per 2MB covers every node.
            if (pageOffset(va, PageSize::Page2M) != 0)
                continue;
            Translation g;
            if (RadixPageTable *r = sys.guestRadix()) {
                steps.clear();
                g = r->walk(va, steps);
                addWalk(radix, g, steps);
            } else if (const EcptPageTable *e = sys.guestEcpt()) {
                g = e->lookup(va);
            }
            if (RadixPageTable *r = sys.hostRadix(); r && g.valid) {
                steps.clear();
                addWalk(radix, r->walk(g.apply(va), steps), steps);
            }
        }
    }
    emitDigest(out, "layout.translations", translations);
    if (sys.guestRadix() || sys.hostRadix())
        emitDigest(out, "layout.radix_walks", radix);
    emitValue(out, "layout.host_pool.used",
              static_cast<double>(sys.hostPool().usedBytes()));
    emitValue(out, "layout.host_pool.next_frame",
              static_cast<double>(
                  sys.hostPool().allocFrame(PageSize::Page4K)));
    if (sys.virtualized()) {
        emitValue(out, "layout.guest_pool.used",
                  static_cast<double>(sys.guestPool().usedBytes()));
        emitValue(out, "layout.guest_pool.next_frame",
                  static_cast<double>(
                      sys.guestPool().allocFrame(PageSize::Page4K)));
    }
    return out.str();
}

/** Render the run's scalar state as sorted "name value" lines. */
std::string
renderSnapshot(const GoldenRun &run)
{
    SimParams params;
    params.warmup_accesses = 1000;
    params.measure_accesses = 5000;
    params.cores = 2;
    params.max_outstanding_walks = run.mlp;
    params.walk_coalescing = run.coalesce;
    // Shrink the footprint (Table-4 divisor) so machine build +
    // prefault stay test-sized; behavior coverage is unaffected.
    params.scale_denominator = 64;
    if (!run.churn.empty())
        params.churn = parseChurnSpec(run.churn);
    if (!run.faults.empty()) {
        params.faults = parseFaultSpec(run.faults);
        params.fault_seed = 7;
    }

    Simulator sim(makeConfig(run.config), params);
    const SimResult result = sim.run(run.app);

    MetricsRegistry reg;
    sim.exportMetrics(reg);

    std::ostringstream out;
    emitValue(out, "result.cycles", static_cast<double>(result.cycles));
    emitValue(out, "result.instructions",
              static_cast<double>(result.instructions));
    emitValue(out, "result.walks", static_cast<double>(result.walks));
    emitValue(out, "result.mmu_requests",
              static_cast<double>(result.mmu_requests));
    emitValue(out, "result.mmu_busy_cycles",
              static_cast<double>(result.mmu_busy_cycles));
    for (const auto &[name, v] : reg.scalarSnapshot())
        emitValue(out, name, v);
    if (run.layout)
        out << renderLayout(sim.system());
    return out.str();
}

std::string
goldenPath(const std::string &stem)
{
    return std::string(NECPT_SOURCE_DIR) + "/tests/golden/" + stem
        + ".txt";
}

void
checkAgainstGolden(const std::string &stem, const std::string &snapshot)
{
    const std::string path = goldenPath(stem);

    if (std::getenv("NECPT_UPDATE_GOLDEN")) {
        std::ofstream out(path);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << snapshot;
        GTEST_SKIP() << "golden regenerated: " << path;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << "missing golden " << path
        << " — regenerate with NECPT_UPDATE_GOLDEN=1";
    std::stringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(golden.str(), snapshot)
        << "simulated behavior changed; if intentional, regenerate "
           "the goldens with NECPT_UPDATE_GOLDEN=1 and commit them";
}

/** The timing-core goldens: Nested ECPTs, named by their knobs. */
void
checkAgainstGolden(int mlp, const std::string &churn = "",
                   bool coalesce = false)
{
    GoldenRun run;
    run.mlp = mlp;
    run.churn = churn;
    run.coalesce = coalesce;
    checkAgainstGolden(std::string("determinism_")
                           + (churn.empty() ? "" : "churn_")
                           + (coalesce ? "coalesce_" : "") + "mlp"
                           + std::to_string(mlp),
                       renderSnapshot(run));
}

/** A functional-layer golden: snapshot plus layout digest. */
void
checkLayoutGolden(const std::string &stem, ConfigId config,
                  const std::string &faults = "",
                  const std::string &churn = "",
                  const std::string &app = "GUPS")
{
    GoldenRun run;
    run.config = config;
    run.app = app;
    run.faults = faults;
    run.churn = churn;
    run.layout = true;
    checkAgainstGolden("layout_" + stem, renderSnapshot(run));
}

} // namespace

TEST(GoldenDeterminism, SerializedWalksMatchGolden)
{
    checkAgainstGolden(1);
}

TEST(GoldenDeterminism, OverlappedWalksMatchGolden)
{
    checkAgainstGolden(4);
}

// With churn armed, the coherence subsystem joins the event loop:
// source firings, shootdown rounds, and walk replays are all pinned by
// the same snapshot contract.
TEST(GoldenDeterminism, ChurnSerializedWalksMatchGolden)
{
    checkAgainstGolden(1, "migrate:5000:8,balloon:20000:16,"
                          "protect:15000:4,batch:8");
}

TEST(GoldenDeterminism, ChurnOverlappedWalksMatchGolden)
{
    checkAgainstGolden(4, "migrate:5000:8,balloon:20000:16,"
                          "protect:15000:4,batch:8");
}

// Walk coalescing on (the headline mlp=4 configuration): same-page
// misses merge in the walk-MSHR instead of spawning duplicate
// machines. Pinned separately from the coalescing-off goldens above,
// which must not move when the feature ships or changes — off means
// byte-identical to the legacy path.
TEST(GoldenDeterminism, CoalescedOverlappedWalksMatchGolden)
{
    checkAgainstGolden(4, "", true);
}

TEST(GoldenDeterminism, ChurnCoalescedOverlappedWalksMatchGolden)
{
    checkAgainstGolden(4,
                       "migrate:5000:8,balloon:20000:16,"
                       "protect:15000:4,batch:8",
                       true);
}

// Functional-layer goldens: one per organization and fault-in path.
// Each pins the run's snapshot plus the final page-table layout, so
// the demand-fault and prefault paths of every organization are held
// to byte identity, not just the Nested-ECPT 4KB path above.

// Guest and host THP: 2MB guest stride, per-region THP decisions on
// both sides, host 2MB blocks demoted to 4KB under page-table pages.
TEST(GoldenDeterminism, NestedEcptThpLayoutMatchesGolden)
{
    checkLayoutGolden("nested_ecpt_thp", ConfigId::NestedEcptThp);
}

// Guest 4KB pages on host huge pages: BFS's guest THP coverage is
// 0.45 against the host's 0.95, so most 64MB regions mix 2MB and 4KB
// guest strides over 2MB host blocks. Pins the host-backing path
// (host lookups below host_mapped_end) that GUPS, fully covered on
// both sides, never reaches.
TEST(GoldenDeterminism, NestedEcptThpBfsLayoutMatchesGolden)
{
    checkLayoutGolden("nested_ecpt_thp_bfs", ConfigId::NestedEcptThp, "",
                      "", "BFS");
}

// Native ECPT: the guest table is final, no host faults.
TEST(GoldenDeterminism, NativeEcptLayoutMatchesGolden)
{
    checkLayoutGolden("ecpt", ConfigId::Ecpt);
}

TEST(GoldenDeterminism, NestedRadixLayoutMatchesGolden)
{
    checkLayoutGolden("nested_radix", ConfigId::NestedRadix);
}

// Radix on both sides with THP: 2MB guest leaves, per-region host THP
// decisions, guest page-table pages scattered among data frames, and
// balloon/migrate churn refaulting pages during the timed phase.
TEST(GoldenDeterminism, NestedRadixThpLayoutMatchesGolden)
{
    checkLayoutGolden("nested_radix_thp", ConfigId::NestedRadixThp, "",
                      "balloon:2000:16,migrate:3000:8,batch:8");
}

// Classic HPTs count every lookup (avgProbes): the digest pins how
// many counted probes faulting and prefault make.
TEST(GoldenDeterminism, NestedHptLayoutMatchesGolden)
{
    checkLayoutGolden("nested_hpt", ConfigId::NestedHpt);
}

TEST(GoldenDeterminism, FlatNestedLayoutMatchesGolden)
{
    checkLayoutGolden("flat_nested", ConfigId::FlatNested);
}

// Churn on the non-ECPT hosts and on a native machine: migration,
// ballooning and write-protection reach the host peek, guest unmap and
// host unmap paths of each organization during the timed phase.
const char *const layout_churn = "migrate:3000:4,balloon:9000:16,"
                                 "protect:5000:4";

TEST(GoldenDeterminism, NestedHptChurnLayoutMatchesGolden)
{
    checkLayoutGolden("nested_hpt_churn", ConfigId::NestedHpt, "",
                      layout_churn);
}

TEST(GoldenDeterminism, FlatNestedThpChurnLayoutMatchesGolden)
{
    checkLayoutGolden("flat_nested_thp_churn", ConfigId::FlatNestedThp, "",
                      layout_churn);
}

TEST(GoldenDeterminism, NativeEcptChurnLayoutMatchesGolden)
{
    checkLayoutGolden("ecpt_churn", ConfigId::Ecpt, "", layout_churn);
}

// Nested ECPT, 4KB pages, no faults: two cores, so four GUPS VMAs,
// each prefaulted untouched. Pins the plain demand-paging layout the
// fault-injected nested goldens below do not reach.
TEST(GoldenDeterminism, NestedEcptLayoutMatchesGolden)
{
    checkLayoutGolden("nested_ecpt", ConfigId::NestedEcpt);
}

// Injected kick exhaustion and resize windows draw from the fault
// plan's streams once per placement / insert: a fault-in path that
// places or inserts a different number of times shifts every later
// decision.
TEST(GoldenDeterminism, NestedEcptKickFaultsLayoutMatchesGolden)
{
    checkLayoutGolden("nested_ecpt_kicks", ConfigId::NestedEcpt,
                      "kicks:0.05");
}

TEST(GoldenDeterminism, NestedEcptResizeFaultsLayoutMatchesGolden)
{
    checkLayoutGolden("nested_ecpt_resize", ConfigId::NestedEcpt,
                      "resize:0.001");
}

// Prefault over 1GB (hugetlbfs-style) VMAs strides by 1GB; mixed with
// THP-eligible and 4KB-only VMAs on a THP machine. Half guest THP
// coverage mixes 2MB and 4KB strides across the 64MB regions.
TEST(GoldenDeterminism, OneGigPrefaultLayoutMatchesGolden)
{
    NestedSystem sys(makeConfig(ConfigId::NestedEcptThp).system);
    sys.setGuestThpCoverage(0.5);
    sys.mmapRegion1G(2ULL << 30);
    sys.mmapRegion(640ULL << 20, true);
    sys.mmapRegion(8ULL << 20, false);
    sys.mmapRegion1G(1ULL << 30);
    sys.prefaultAll();
    checkAgainstGolden("layout_prefault_1g", renderLayout(sys));
}

// Pages touched through ensureResident before prefaultAll: their VMAs
// hold mappings the prefault pass must find, not re-create, and the
// host backing of the touched frames lies below later frames. Small
// initial ways make both tables grow elastically partway through the
// last, untouched VMA, so a resize window opens on a fresh VMA too.
TEST(GoldenDeterminism, TouchedPrefaultLayoutMatchesGolden)
{
    SystemConfig cfg = makeConfig(ConfigId::NestedEcpt).system;
    cfg.guest_ecpt.initial_slots = {512, 512, 256};
    cfg.host_ecpt.initial_slots = {512, 512, 256};
    NestedSystem sys(cfg);
    const Addr a = sys.mmapRegion(8ULL << 20, true);
    const Addr b = sys.mmapRegion(6ULL << 20, false);
    sys.mmapRegion(24ULL << 20, true);
    for (const Addr va : {Addr{a + 0x5000}, Addr{a + 0x6000},
                          Addr{a + (3ULL << 20)},
                          Addr{a + (5ULL << 20) + 0x1234},
                          Addr{b + 0x3000}})
        sys.ensureResident(va);
    sys.prefaultAll();
    checkAgainstGolden("layout_nested_ecpt_touched", renderLayout(sys));
}

} // namespace necpt
