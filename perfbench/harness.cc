/**
 * @file
 * Outside-in benchmark harness for the nECPT simulator.
 *
 * Drives the simulator only through its public surface: each run is a
 * Simulator::runWith call whose factory wraps every core's Workload in
 * a forwarding PhasedWorkload. The wrapper marks the phase boundaries
 * from outside: the runWith call, each core's setup(), and the first
 * next() (machine build + workload setup + prefault before it, the
 * timed warm-up + measure phase after it). Phases are timed on the
 * simulating thread's CPU clock and scaled to a reference host speed
 * by a calibration loop run on the same thread around each run. After
 * each run the harness checks the simulator's translations against the
 * functional page tables, runs the invariant audit and the
 * cycle-conservation check, and holds the simulated scalar set to the
 * first run of the same seeds (in a traced run, a plain unwrapped
 * run). A traced run also
 * replays further accesses through each layer's public calls under a
 * span recorder.
 *
 * Usage: necpt_perfbench --workload NAME --seed N --seconds S
 *                        --trace 0|1 [--out DIR] [--commit ID]
 *                        [--source-digest HEX]
 * The last stdout line is one JSON object:
 *   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
 * with the end-to-end metrics (--trace 0) or the per-layer ones
 * (--trace 1). perfbench/METRICS.md defines every metric.
 */

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "coherence/churn.hh"
#include "common/bitops.hh"
#include "common/cycle_ledger.hh"
#include "common/metrics.hh"
#include "common/rng.hh"
#include "exec/engine.hh"
#include "sim/config.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "walk/machine.hh"
#include "workloads/workload.hh"

#include "spans.hh"

using namespace necpt;
using perfbench::Layer;
using perfbench::Scope;
using perfbench::SpanRecorder;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/**
 * CPU seconds of the calling thread. Every phase time the end-to-end
 * metrics use is read on this clock, not the wall clock: on a shared
 * host a vCPU loses stretches of time to other guests (steal), and the
 * wall time of the same run can move by half from one minute to the
 * next while the thread's own CPU time does not. A simulation runs on
 * one thread (sim_threads is left at 1), so its CPU time is the wall
 * time it takes on an unshared host.
 */
double
threadCpuS()
{
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec)
        + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/**
 * Host-speed calibration. The CPU time of the same simulation still
 * drifts by up to a third within half an hour on a shared host, with
 * no steal at all: the package clock and a busy sibling hyperthread
 * slow every instruction, and compute-bound code drifts with them.
 * calibrate() times, on the calling thread's CPU clock, a fixed loop of
 * the kind the simulator's hot paths are made of (hash mixing and loads
 * from a table that stays in L2). Phase times are scaled by
 * calib_ref_s / calib_s to seconds at a reference host speed: a host on
 * which the loop takes calib_ref_s. The loop is the harness's own, so
 * no change to the simulator moves it.
 */
constexpr double calib_ref_s = 0.04;

double
calibrate()
{
    constexpr std::uint64_t table_words = std::uint64_t{1} << 16; // 512 KiB
    thread_local const std::vector<std::uint64_t> table = [] {
        std::vector<std::uint64_t> t(table_words);
        for (std::uint64_t i = 0; i < table_words; ++i)
            t[i] = i * 0x9E3779B97F4A7C15ULL;
        return t;
    }();
    std::uint64_t state = 0x5EED, acc = 0;
    const double t0 = threadCpuS();
    for (int i = 0; i < 40'000'000; ++i) {
        state += 0x9E3779B97F4A7C15ULL;
        std::uint64_t z = state;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        acc += table[(z ^ (z >> 31)) & (table_words - 1)];
    }
    const double t = threadCpuS() - t0;
    volatile std::uint64_t sink = acc;
    (void)sink;
    return t;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** One simulation: a configuration, an application and its run length. */
struct SimSpec
{
    std::string label;
    ConfigId config = ConfigId::NestedEcpt;
    std::string app;
    int cores = 1;
    std::uint64_t scale = 16;
    std::uint64_t warmup = 0;  //!< accesses per core
    std::uint64_t measure = 0; //!< accesses per core
    int mlp = 1;
    bool coalesce = false;
    std::string churn; //!< ChurnSpec text, empty = off
};

/** A benchmark workload: one simulation, or a sweep of several. */
struct WorkloadDef
{
    std::string name;
    std::vector<SimSpec> sims;
    bool sweep = false;
};

/*
 * Why these four (perfbench/METRICS.md has the full reasoning):
 * gups_1c walks on nearly every access, so the functional page tables,
 * the walker and the MMU caches dominate; mummer_thp_1c almost never
 * walks and is the bypass workload for walk/page-table/prefault work;
 * gups_4c_churn is the only one with real event traffic, contention and
 * coherence rounds; sweep_variants is the only one through exec/ and
 * the only one that repeats set-up across jobs. Run lengths keep one
 * repetition at a few host seconds so a run holds several.
 */
const std::vector<WorkloadDef> &
workloadDefs()
{
    static const std::vector<WorkloadDef> defs = [] {
        std::vector<WorkloadDef> d;
        d.push_back({"gups_1c",
                     {{"gups_1c", ConfigId::NestedEcpt, "GUPS", 1, 16,
                       50'000, 350'000, 1, false, ""}},
                     false});
        d.push_back({"mummer_thp_1c",
                     {{"mummer_thp_1c", ConfigId::NestedEcptThp, "MUMmer",
                       1, 16, 200'000, 1'800'000, 1, false, ""}},
                     false});
        d.push_back({"gups_4c_churn",
                     {{"gups_4c_churn", ConfigId::NestedEcpt, "GUPS", 4,
                       64, 10'000, 40'000, 4, true, "all,mode:sw"}},
                     false});
        const SimSpec point{"mlp1", ConfigId::NestedEcpt, "GUPS", 1, 64,
                            50'000, 400'000, 1, false, ""};
        SimSpec mlp4 = point;
        mlp4.label = "mlp4_coalesce";
        mlp4.mlp = 4;
        mlp4.coalesce = true;
        SimSpec sw = point;
        sw.label = "churn_sw";
        sw.churn = "all,mode:sw";
        SimSpec hw = point;
        hw.label = "churn_hw";
        hw.churn = "all,mode:hw";
        d.push_back({"sweep_variants", {point, mlp4, sw, hw}, true});
        return d;
    }();
    return defs;
}

/** Seed derivation: the benchmark seed reaches both the machine
 *  (SimParams::seed) and every per-core workload stream. */
std::uint64_t
mixSeed(std::uint64_t bench_seed, std::uint64_t salt)
{
    std::uint64_t s = bench_seed ^ (salt * 0x9E3779B97F4A7C15ULL);
    return splitmix64(s);
}

/**
 * Every layout runs twice in a row: repetition k simulates
 * layoutSeed(seed, k / 2), and its simulated scalars must equal those
 * of the pair's first repetition. The seed moves the machine's layout
 * (THP coverage draws, hash functions, frame placement) and with it
 * real set-up work — MUMmer's prefault differs up to eightfold between
 * layouts — so a run's medians over many layouts vary less from seed
 * to seed than those over a few would.
 */
constexpr std::size_t runs_per_layout = 2;

std::uint64_t
layoutSeed(std::uint64_t bench_seed, std::size_t layout)
{
    return mixSeed(bench_seed, 0x1A70 + layout);
}

ExperimentConfig
configFor(const SimSpec &spec)
{
    ExperimentConfig cfg = makeConfig(spec.config);
    if (spec.cores > 1)
        configureSharedResources(cfg, spec.cores);
    return cfg;
}

SimParams
paramsFor(const SimSpec &spec, std::uint64_t bench_seed)
{
    SimParams p;
    p.warmup_accesses = spec.warmup;
    p.measure_accesses = spec.measure;
    p.scale_denominator = spec.scale;
    p.seed = mixSeed(bench_seed, 0x5EED);
    p.cores = spec.cores;
    p.max_outstanding_walks = spec.mlp;
    p.walk_coalescing = spec.coalesce;
    if (!spec.churn.empty())
        p.churn = parseChurnSpec(spec.churn);
    return p;
}

/** Phase boundaries of one runWith call, seen from the workloads, on
 *  the simulating thread's CPU clock (threadCpuS). */
struct PhaseClock
{
    double first_setup = 0;
    double last_setup_end = 0;
    double first_next = 0;
    bool setup_seen = false;
    bool started = false;
    double setup_s = 0;             //!< summed per-core setup()
    std::uint64_t faults_after_setup = 0;
    std::uint64_t faults_at_first_next = 0;
    NestedSystem *sys = nullptr;
};

std::uint64_t
faultCount(const NestedSystem &sys)
{
    return sys.guestFaults() + sys.hostFaults();
}

/**
 * Forwarding workload: the stream is the inner workload's, untouched;
 * the wrapper only reads the clock at setup() and at the first next().
 * The inner workload is shared so the harness can keep drawing from
 * the same stream after runWith returns.
 */
class PhasedWorkload final : public Workload
{
  public:
    PhasedWorkload(std::shared_ptr<Workload> inner, PhaseClock &clock)
        : Workload(0), inner_(std::move(inner)), clock_(clock)
    {}

    Info info() const override { return inner_->info(); }

    void
    setup(NestedSystem &sys) override
    {
        const double t0 = threadCpuS();
        if (!clock_.setup_seen) {
            clock_.first_setup = t0;
            clock_.setup_seen = true;
        }
        inner_->setup(sys);
        const double t1 = threadCpuS();
        clock_.setup_s += t1 - t0;
        clock_.last_setup_end = t1;
        clock_.sys = &sys;
        clock_.faults_after_setup = faultCount(sys);
    }

    MemAccess
    next() override
    {
        if (!clock_.started) [[unlikely]] {
            clock_.first_next = threadCpuS();
            clock_.started = true;
            clock_.faults_at_first_next = faultCount(*clock_.sys);
        }
        return inner_->next();
    }

  private:
    std::shared_ptr<Workload> inner_;
    PhaseClock &clock_;
};

/** Correctness-check tally, folded into fail_frac. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t skipped = 0; //!< sampled pages churn left unmapped
    std::vector<std::string> messages;

    void
    expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (ok)
            return;
        ++failed;
        if (messages.size() < 16)
            messages.push_back(what);
    }

    void
    add(const Checks &o)
    {
        attempted += o.attempted;
        failed += o.failed;
        skipped += o.skipped;
        for (const std::string &m : o.messages)
            if (messages.size() < 16)
                messages.push_back(m);
    }
};

/** Translation samples drawn per core after every run. */
constexpr int check_samples = 256;

/** Replayed accesses per traced/untraced block. */
constexpr std::uint64_t replay_block = 256;

/** A replayed access is followed by an os mutation and a coherence
 *  round every this many accesses (churn workloads only). */
constexpr std::uint64_t mutate_every = 64;

/** Host-side cycle origin for post-run calls: far beyond any run's
 *  final cycle, so checked and replayed requests never land in the
 *  simulated past. */
constexpr Cycles post_run_cycle = Cycles{1} << 40;

/** Per-core cursor shared by the post-run checks and the replay. */
struct PostRunCore
{
    Cycles now = post_run_cycle;
    std::uint64_t replayed = 0;
};

/** Everything one simulation leaves behind. Phase times are CPU
 *  seconds of the simulating thread (totals() scales them to the
 *  reference host speed); wall_s and the job bookkeeping are
 *  wall-clock seconds. */
struct SimRun
{
    std::string label;
    bool ok = false;
    double wall_s = 0;        //!< runWith call -> return, wall clock
    double run_s = 0;         //!< runWith call -> return
    double calib_s = 0;       //!< mean calibrate() before and after
    double setup_s = 0;       //!< runWith call -> first next()
    double construct_s = 0;   //!< runWith call -> first setup()
    double workload_setup_s = 0;
    double prefault_s = 0;    //!< last setup() return -> first next()
    double timed_s = 0;       //!< first next() -> runWith return
    std::uint64_t accesses = 0;          //!< warm-up + measured, all cores
    std::uint64_t measured_accesses = 0; //!< measured, all cores
    std::uint64_t prefault_faults = 0;
    SimResult result;
    std::map<std::string, double> registry;
    std::string scalars; //!< canonical simulated scalar set
    Checks checks;
    /** Traced replay (trace mode, last repetition only). */
    std::unique_ptr<SpanRecorder> spans;
    double replay_traced_s = 0;
    std::uint64_t replay_traced_accesses = 0;
    double replay_untraced_s = 0;
    std::uint64_t replay_untraced_accesses = 0;
    /** Sweep bookkeeping, seconds since the sweep started. */
    double job_start = 0;
    double job_end = 0;
};

void
appendScalar(std::string &out, const std::string &name, double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += name + "=" + buf + "\n";
}

/**
 * The simulated scalar set a simulator-speed change must leave
 * byte-identical. Host-time entries ("host." metrics, should the
 * simulator grow them) are excluded: they are not simulated values.
 */
std::string
canonicalScalars(const SimResult &r)
{
    std::string s;
    appendScalar(s, "instructions", static_cast<double>(r.instructions));
    appendScalar(s, "cycles", static_cast<double>(r.cycles));
    appendScalar(s, "mmu_busy_cycles",
                 static_cast<double>(r.mmu_busy_cycles));
    appendScalar(s, "l1_tlb_misses", static_cast<double>(r.l1_tlb_misses));
    appendScalar(s, "l2_tlb_misses", static_cast<double>(r.l2_tlb_misses));
    appendScalar(s, "walks", static_cast<double>(r.walks));
    appendScalar(s, "mmu_requests", static_cast<double>(r.mmu_requests));
    appendScalar(s, "l2_mpki", r.l2_mpki);
    appendScalar(s, "l3_mpki", r.l3_mpki);
    appendScalar(s, "mmu_rpki", r.mmu_rpki);
    appendScalar(s, "mmu_l2_misses_pki", r.mmu_l2_misses_pki);
    appendScalar(s, "avg_mshrs", r.avg_mshrs);
    appendScalar(s, "max_mshrs", static_cast<double>(r.max_mshrs));
    appendScalar(s, "dram_row_hit_rate", r.dram_row_hit_rate);
    appendScalar(s, "walk_latency.mean", r.walk_latency.mean());
    appendScalar(s, "walk_latency.count",
                 static_cast<double>(r.walk_latency.total()));
    appendScalar(s, "guest_structure_bytes",
                 static_cast<double>(r.guest_structure_bytes));
    appendScalar(s, "host_structure_bytes",
                 static_cast<double>(r.host_structure_bytes));
    appendScalar(s, "pte_bytes_total",
                 static_cast<double>(r.pte_bytes_total));
    appendScalar(s, "guest_faults", static_cast<double>(r.guest_faults));
    appendScalar(s, "host_faults", static_cast<double>(r.host_faults));
    for (const auto &[name, v] : r.metrics)
        if (name.rfind("host.", 0) != 0)
            appendScalar(s, name, v);
    return s;
}

std::string
hex(Addr a)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%llx",
                  static_cast<unsigned long long>(a));
    return buf;
}

/**
 * Translation oracle over the post-run state: for sampled gVAs of each
 * core's stream, every TLB hit and every walk must map to the hPA the
 * functional page tables give. Pages that churn left unmapped are
 * skipped (nothing may translate them; the next access refaults).
 */
void
checkTranslations(Simulator &sim,
                  const std::vector<std::shared_ptr<Workload>> &streams,
                  std::vector<PostRunCore> &cursors, Checks &checks)
{
    NestedSystem &sys = sim.system();
    for (int core = 0; core < sim.numCores(); ++core) {
        Workload &stream = *streams[static_cast<std::size_t>(core)];
        Cycles &now = cursors[static_cast<std::size_t>(core)].now;
        for (int i = 0; i < check_samples; ++i) {
            const Addr va = stream.next().vaddr;
            const Translation want = sys.fullTranslate(va);
            if (!want.valid) {
                ++checks.skipped;
                continue;
            }
            const Addr want_pa = want.apply(va);
            const TlbHierarchy::Result hit = sim.tlbs(core).lookup(va);
            if (hit.hit) {
                checks.expect(
                    hit.translation.valid
                        && hit.translation.apply(va) == want_pa,
                    "core " + std::to_string(core) + " TLB hit for gVA "
                        + hex(va) + " gives " + hex(hit.translation.apply(va))
                        + ", page tables give " + hex(want_pa));
            }
            const WalkResult walk = sim.walker(core).translate(va, now);
            now += walk.latency + 1;
            checks.expect(walk.translation.valid
                              && walk.translation.apply(va) == want_pa,
                          "core " + std::to_string(core) + " walk for gVA "
                              + hex(va) + " gives "
                              + hex(walk.translation.apply(va))
                              + ", page tables give " + hex(want_pa));
        }
    }
}

/** Post-run checks shared by every wrapped run. */
void
checkRun(Simulator &sim, const SimRun &run,
         const std::vector<std::shared_ptr<Workload>> &streams,
         std::vector<PostRunCore> &cursors, Checks &checks)
{
    try {
        sim.system().auditInvariants();
        checks.expect(true, "");
    } catch (const std::exception &e) {
        checks.expect(false, std::string("auditInvariants: ") + e.what());
    }

    double attr_sum = 0;
    for (int c = 0; c < num_attr_causes; ++c) {
        const auto it = run.result.metrics.find(
            std::string("attr.") + attrCauseName(static_cast<AttrCause>(c))
            + ".cycles");
        if (it != run.result.metrics.end())
            attr_sum += it->second;
    }
    checks.expect(attr_sum == static_cast<double>(run.result.mmu_busy_cycles),
                  "cycle conservation: attr.*.cycles sum "
                      + std::to_string(attr_sum) + " != mmu_busy_cycles "
                      + std::to_string(run.result.mmu_busy_cycles));

    checkTranslations(sim, streams, cursors, checks);
}

/** Apply os mutation @p op (0 migrate, 1 balloon, 2 THP demote, 3 THP
 *  promote, 4 write-protect) to the page holding @p va and fill in the
 *  invalidation a churn source would queue for it, as in
 *  workloads/churn_sources.cc. @return false when nothing changed. */
bool
mutate(NestedSystem &sys, int op, Addr va, Invalidation &inv)
{
    const Translation g = sys.guestTranslate(va);
    switch (op) {
      case 0: // NUMA migration of the backing
        if (!g.valid || !sys.migratePage(va))
            return false;
        inv.gva = pageBase(va, g.size);
        inv.bytes = pageBytes(g.size);
        inv.gpa = pageBase(g.pa, g.size);
        inv.gpa_bytes = pageBytes(g.size);
        inv.kind = InvalKind::Remap;
        return true;
      case 1: { // balloon inflate
        const NestedSystem::UnmapInfo info = sys.balloonOut(va);
        if (!info.ok)
            return false;
        inv.gva = info.page;
        inv.bytes = pageBytes(info.old_guest.size);
        inv.gpa = pageBase(info.old_guest.pa, info.old_guest.size);
        inv.gpa_bytes = inv.bytes;
        inv.kind = InvalKind::Unmap;
        return true;
      }
      case 2: // THP demotion
        if (!g.valid || g.size != PageSize::Page2M || sys.thpDemote(va) == 0)
            return false;
        inv.gva = pageBase(va, PageSize::Page2M);
        inv.bytes = pageBytes(PageSize::Page2M);
        inv.gpa = pageBase(g.pa, PageSize::Page2M);
        inv.gpa_bytes = inv.bytes;
        inv.kind = InvalKind::Demote;
        return true;
      case 3: // THP promotion
        if (sys.thpPromote(va) == 0)
            return false;
        inv.gva = pageBase(va, PageSize::Page2M);
        inv.bytes = pageBytes(PageSize::Page2M);
        inv.kind = InvalKind::Promote;
        return true;
      default: // write-protect
        if (!g.valid || !sys.writeProtectPage(va))
            return false;
        inv.gva = pageBase(va, g.size);
        inv.bytes = pageBytes(g.size);
        inv.kind = InvalKind::Protect;
        return true;
    }
}

/**
 * Replay one access of @p core's stream through the public layer calls,
 * in the serialized model's order, plus the functional calls as their
 * own spans. @p rec null = untraced (no clock reads).
 */
void
replayAccess(Simulator &sim, Workload &stream, int core, int mlp,
             PostRunCore &rc, std::uint64_t id, std::vector<Addr> &probes,
             SpanRecorder *rec)
{
    NestedSystem &sys = sim.system();
    MemoryHierarchy &mem = sim.memory();
    TlbHierarchy &tlb = sim.tlbs(core);
    const auto c = static_cast<std::uint32_t>(core);
    Addr va = 0;
    {
        Scope access(rec, Layer::Access, id, c);
        {
            Scope s(rec, Layer::Next, id, c);
            va = stream.next().vaddr;
        }
        {
            Scope s(rec, Layer::EnsureResident, id, c);
            sys.ensureResident(va);
        }
        TlbHierarchy::Result look;
        {
            Scope s(rec, Layer::TlbLookup, id, c);
            look = tlb.lookup(va);
        }
        rc.now += look.latency;
        Translation tr = look.translation;
        if (!look.hit) {
            WalkResult walk;
            {
                Scope s(rec, Layer::WalkTranslate, id, c);
                if (mlp > 1) {
                    WalkMachinePtr m = sim.walker(core).startWalk(va, rc.now);
                    mem.drainAll();
                    walk = m->result();
                } else {
                    walk = sim.walker(core).translate(va, rc.now);
                }
            }
            rc.now += walk.latency;
            tr = walk.translation;
            Scope s(rec, Layer::TlbInstall, id, c);
            tlb.install(va, tr);
        }
        Scope s(rec, Layer::MemAccess, id, c);
        rc.now += mem.access(tr.apply(va), rc.now, Requester::Core, core)
                      .latency;
    }

    {
        Scope s(rec, Layer::FullTranslate, id, c);
        (void)sys.fullTranslate(va);
    }
    EcptPageTable *guest = sys.guestEcpt();
    EcptPageTable *host = sys.hostEcpt();
    Translation g;
    if (guest) {
        Scope s(rec, Layer::EcptLookup, id, c);
        g = guest->lookup(va);
    }
    if (host && g.valid) {
        const Addr gpa = g.apply(va);
        {
            Scope s(rec, Layer::EcptLookup, id, c);
            (void)host->lookup(gpa);
        }
        // A Step-3-shaped probe set: every way of every host table.
        probes.clear();
        for (PageSize size : all_page_sizes)
            host->probeAddrs(gpa, size, host->allWays(), probes);
        Scope s(rec, Layer::MemBatch, id, c);
        rc.now += mem.batchAccess(AddrSpan(probes.data(), probes.size()),
                                  rc.now, core)
                      .latency;
    }

    CoherenceController *coh = sim.coherenceController();
    if (coh && ++rc.replayed % mutate_every == 0) {
        Invalidation inv;
        bool changed = false;
        {
            Scope s(rec, Layer::OsMutate, id, c);
            changed = mutate(sys, static_cast<int>(
                                      (rc.replayed / mutate_every) % 5),
                             va, inv);
        }
        if (changed) {
            Scope s(rec, Layer::CoherenceRound, id, c);
            coh->queueInvalidation(inv);
            const CoherenceController::RoundPlan plan =
                coh->beginRound(core, rc.now);
            coh->finishRound(plan);
        }
    }
}

/**
 * Traced replay: alternating blocks with spans on and off, for
 * @p seconds of host time, cores round-robin. The off blocks give the
 * tracing overhead.
 */
void
replay(Simulator &sim, const std::vector<std::shared_ptr<Workload>> &streams,
       std::vector<PostRunCore> &cores, int mlp, double seconds,
       Clock::time_point epoch, std::uint32_t lane, SimRun &run)
{
    run.spans = std::make_unique<SpanRecorder>(epoch, lane, 20'000);
    std::vector<Addr> probes;
    const auto start = Clock::now();
    std::uint64_t id = 0;
    for (std::uint64_t block = 0;; ++block) {
        const bool traced = block % 2 == 0;
        SpanRecorder *rec = traced ? run.spans.get() : nullptr;
        const auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < replay_block; ++i) {
            const int core = static_cast<int>(i % cores.size());
            replayAccess(sim, *streams[static_cast<std::size_t>(core)],
                         core, mlp, cores[static_cast<std::size_t>(core)],
                         id++, probes, rec);
        }
        const double dt = secondsBetween(t0, Clock::now());
        (traced ? run.replay_traced_s : run.replay_untraced_s) += dt;
        (traced ? run.replay_traced_accesses
                : run.replay_untraced_accesses) += replay_block;
        if (!traced && secondsBetween(start, Clock::now()) >= seconds)
            break;
    }
}

struct RunOptions
{
    bool wrapped = true;
    double replay_s = 0; //!< > 0: traced replay after the checks
    Clock::time_point epoch{};
    std::uint32_t lane = 0;
};

/** One runWith call plus its post-run checks (and replay). */
SimRun
simulate(const SimSpec &spec, std::uint64_t bench_seed,
         const RunOptions &opt)
{
    SimRun run;
    run.label = spec.label;
    run.accesses = (spec.warmup + spec.measure)
        * static_cast<std::uint64_t>(spec.cores);
    run.measured_accesses =
        spec.measure * static_cast<std::uint64_t>(spec.cores);
    try {
        const ExperimentConfig cfg = configFor(spec);
        const SimParams params = paramsFor(spec, bench_seed);
        const std::uint64_t footprint =
            makeWorkload(spec.app, spec.scale)->info().footprint_bytes;
        Simulator sim(cfg, params);
        PhaseClock clock;
        std::vector<std::shared_ptr<Workload>> streams;
        const Simulator::WorkloadFactory factory =
            [&](std::uint64_t core_seed) -> std::unique_ptr<Workload> {
            std::unique_ptr<Workload> w = makeWorkload(
                spec.app, spec.scale, mixSeed(bench_seed, core_seed));
            if (!opt.wrapped)
                return w;
            streams.emplace_back(std::move(w));
            return std::make_unique<PhasedWorkload>(streams.back(), clock);
        };

        const double calib_before = calibrate();
        run.job_start = secondsBetween(opt.epoch, Clock::now());
        const double c0 = threadCpuS();
        const auto t0 = Clock::now();
        run.result = sim.runWith(spec.app, factory, footprint);
        const auto t1 = Clock::now();
        const double c1 = threadCpuS();
        run.wall_s = secondsBetween(t0, t1);
        run.run_s = c1 - c0;
        run.calib_s = 0.5 * (calib_before + calibrate());
        run.scalars = canonicalScalars(run.result);
        run.ok = true;
        run.job_end = secondsBetween(opt.epoch, t1);
        if (!opt.wrapped)
            return run;

        run.construct_s = clock.first_setup - c0;
        run.workload_setup_s = clock.setup_s;
        run.prefault_s = clock.first_next - clock.last_setup_end;
        run.setup_s = clock.first_next - c0;
        run.timed_s = c1 - clock.first_next;
        run.prefault_faults =
            clock.faults_at_first_next - clock.faults_after_setup;

        MetricsRegistry reg;
        sim.exportMetrics(reg);
        run.registry = reg.scalarSnapshot();

        std::vector<PostRunCore> cursors(
            static_cast<std::size_t>(spec.cores));
        checkRun(sim, run, streams, cursors, run.checks);
        if (opt.replay_s > 0)
            replay(sim, streams, cursors, spec.mlp, opt.replay_s, opt.epoch,
                   opt.lane, run);
    } catch (const std::exception &e) {
        run.ok = false;
        run.checks.expect(false, spec.label + ": " + e.what());
    }
    return run;
}

int
sweepWorkers(std::size_t jobs)
{
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    return static_cast<int>(std::min<std::size_t>(jobs, hw));
}

/** One repetition of a workload: its simulations, and for the sweep the
 *  engine's own timing. */
struct Rep
{
    std::vector<SimRun> sims;
    double wall_s = 0;
    int workers = 1;
    Checks engine; //!< job failures the engine reported
};

Rep
runRep(const WorkloadDef &def, std::uint64_t seed, const RunOptions &base)
{
    Rep rep;
    if (!def.sweep) {
        rep.sims.push_back(simulate(def.sims.front(), seed, base));
        rep.wall_s = rep.sims.front().wall_s;
        return rep;
    }

    rep.workers = sweepWorkers(def.sims.size());
    rep.sims.resize(def.sims.size());
    SweepOptions so;
    so.jobs = rep.workers;
    so.progress = nullptr;
    SweepEngine engine(so);
    const auto start = Clock::now();
    std::vector<JobSpec> jobs;
    for (std::size_t i = 0; i < def.sims.size(); ++i) {
        JobSpec js;
        js.key = def.name + "/" + def.sims[i].label;
        js.fn = [&, i](const JobContext &) {
            RunOptions opt = base;
            opt.epoch = start;
            opt.lane = static_cast<std::uint32_t>(i);
            rep.sims[i] = simulate(def.sims[i], seed, opt);
            JobOutput out;
            out.sim = rep.sims[i].result;
            return out;
        };
        jobs.push_back(std::move(js));
    }
    const ResultSink sink = engine.run(jobs);
    for (const JobRecord &r : sink.records())
        rep.engine.expect(r.status == JobStatus::Ok,
                          "sweep job " + r.key + ": " + r.error);
    double last_end = 0;
    for (const SimRun &s : rep.sims)
        last_end = std::max(last_end, s.job_end);
    // Sweep wall: engine call to the last simulation's return (the
    // post-run checks that follow inside each job are not timed).
    rep.wall_s = last_end;
    return rep;
}

/** Per-repetition aggregates (sums over the sweep's jobs). */
struct RepTotals
{
    double wall_s = 0, run_s = 0, setup_s = 0, timed_s = 0, construct_s = 0;
    double cpu_s = 0, calib_s = 0;
    double workload_setup_s = 0, prefault_s = 0;
    double accesses = 0;
    double job_s = 0, queue_wait_s = 0, parallel_eff = 0;
};

RepTotals
totals(const Rep &rep)
{
    RepTotals t;
    t.wall_s = rep.wall_s;
    std::vector<double> job_s;
    double job_sum = 0, wait_sum = 0;
    for (const SimRun &s : rep.sims) {
        // A run that threw has no calibration; it is a failed check.
        const double k = s.calib_s > 0 ? calib_ref_s / s.calib_s : 1.0;
        t.cpu_s += s.run_s;
        t.calib_s += s.calib_s / static_cast<double>(rep.sims.size());
        t.run_s += k * s.run_s;
        t.setup_s += k * s.setup_s;
        t.timed_s += k * s.timed_s;
        t.construct_s += k * s.construct_s;
        t.workload_setup_s += k * s.workload_setup_s;
        t.prefault_s += k * s.prefault_s;
        t.accesses += static_cast<double>(s.accesses);
        job_s.push_back(s.job_end - s.job_start);
        job_sum += s.job_end - s.job_start;
        wait_sum += s.job_start;
    }
    if (rep.sims.size() > 1) {
        t.job_s = median(job_s);
        t.queue_wait_s = wait_sum / static_cast<double>(rep.sims.size());
        t.parallel_eff = rep.wall_s > 0
            ? job_sum / (rep.workers * rep.wall_s)
            : 0.0;
    }
    return t;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string out_dir = ".bench_out";
    std::string commit = "unknown";
    std::string source_digest = "unknown";
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "error: %s\nusage: necpt_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--out DIR] [--commit ID] "
                 "[--source-digest HEX]\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = v;
            have_workload = true;
        } else if (flag == "--seed") {
            if (v.empty() || v.find_first_not_of("0123456789") != v.npos)
                usage("--seed takes a whole number");
            a.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end || !(a.seconds > 0) || a.seconds > 120)
                usage("--seconds takes a number in (0, 120]");
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (flag == "--out") {
            a.out_dir = v;
        } else if (flag == "--commit") {
            a.commit = v;
        } else if (flag == "--source-digest") {
            a.source_digest = v;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return a;
}

/**
 * The CPUs this process may run on. Single-simulation repetitions are
 * pinned to them in turn: on a shared host each CPU's speed drifts on
 * its own (a sibling hyperthread or a neighbour gets busy), so a run
 * whose repetitions visit every CPU varies less than one the scheduler
 * happens to keep on a single CPU. Sweep repetitions stay unpinned; the
 * engine's workers would inherit the pin.
 */
std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
    return cpus;
}

/** Pin the calling thread to @p cpus[k % size], or to all of @p cpus
 *  when @p k is negative. */
void
pinRepetition(const std::vector<int> &cpus, long k)
{
    if (cpus.empty())
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (k < 0) {
        for (int c : cpus)
            CPU_SET(c, &set);
    } else {
        CPU_SET(cpus[static_cast<std::size_t>(k) % cpus.size()], &set);
    }
    sched_setaffinity(0, sizeof set, &set);
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char ch : s) {
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (static_cast<unsigned char>(ch) < 0x20) {
            out += ' ';
        } else {
            out += ch;
        }
    }
    return out;
}

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string s = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        s += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": "
            + num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit
            + "\"}";
    }
    return s + "}";
}

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_SIMD
#define PERFBENCH_SIMD "unknown"
#endif
#ifndef PERFBENCH_LTO
#define PERFBENCH_LTO "unknown"
#endif

std::string
provenanceJson(const Args &a, int reps)
{
    return std::string("{\"workload\": \"") + jsonEscape(a.workload)
        + "\", \"seed\": " + std::to_string(a.seed)
        + ", \"seconds\": " + num(a.seconds)
        + ", \"trace\": " + (a.trace ? "1" : "0")
        + ", \"repetitions\": " + std::to_string(reps)
        + ", \"commit\": \"" + jsonEscape(a.commit)
        + "\", \"source_digest\": \"" + jsonEscape(a.source_digest)
        + "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE
          "\", \"simd\": \"" PERFBENCH_SIMD "\", \"lto\": \"" PERFBENCH_LTO
          "\", \"compiler\": \""
        + jsonEscape(__VERSION__) + "\", \"nproc\": "
        + std::to_string(std::thread::hardware_concurrency()) + "}";
}

/** Sum of @p key over the runs' registry snapshots. */
double
registrySum(const std::vector<const SimRun *> &runs,
            const std::string &prefix, const std::string &suffix)
{
    double sum = 0;
    for (const SimRun *r : runs)
        for (const auto &[name, v] : r->registry)
            if (name.rfind(prefix, 0) == 0 && name.size() >= suffix.size()
                && name.compare(name.size() - suffix.size(), suffix.size(),
                                suffix) == 0)
                sum += v;
    return sum;
}

double
metricSum(const std::vector<const SimRun *> &runs, const std::string &key)
{
    double sum = 0;
    for (const SimRun *r : runs) {
        const auto it = r->result.metrics.find(key);
        if (it != r->result.metrics.end())
            sum += it->second;
    }
    return sum;
}

template <typename F>
double
meanOf(const std::vector<const SimRun *> &runs, F f)
{
    double sum = 0;
    for (const SimRun *r : runs)
        sum += f(*r);
    return runs.empty() ? 0.0 : sum / static_cast<double>(runs.size());
}

double
ratio(double a, double b)
{
    return b != 0 ? a / b : 0.0;
}

std::vector<Metric>
perLayerMetrics(const std::vector<Rep> &reps, const Checks &checks)
{
    // Simulated values come from the first repetition (layout 0), so
    // they repeat exactly for a seed however many repetitions the
    // budget allowed; the replay ran in the last one.
    std::vector<const SimRun *> runs;
    for (const SimRun &s : reps.front().sims)
        runs.push_back(&s);
    SpanRecorder merged(Clock::now(), 0, 0);
    double traced_s = 0, untraced_s = 0;
    double traced_n = 0, untraced_n = 0;
    for (const SimRun &s : reps.back().sims) {
        if (s.spans)
            merged.addTotals(*s.spans);
        traced_s += s.replay_traced_s;
        untraced_s += s.replay_untraced_s;
        traced_n += static_cast<double>(s.replay_traced_accesses);
        untraced_n += static_cast<double>(s.replay_untraced_accesses);
    }

    std::vector<double> construct, wsetup, prefault, timed, job_s, wait,
        eff, calib;
    for (const Rep &r : reps) {
        const RepTotals t = totals(r);
        construct.push_back(t.construct_s);
        wsetup.push_back(t.workload_setup_s);
        prefault.push_back(t.prefault_s);
        timed.push_back(t.timed_s);
        job_s.push_back(t.job_s);
        wait.push_back(t.queue_wait_s);
        eff.push_back(t.parallel_eff);
        calib.push_back(t.calib_s);
    }
    const RepTotals first = totals(reps.front());

    double measured = 0, walks = 0, mmu_requests = 0, l2_misses = 0;
    double faults = 0, prefault_faults = 0, cycles = 0, instructions = 0;
    for (const SimRun *r : runs) {
        measured += static_cast<double>(r->measured_accesses);
        walks += static_cast<double>(r->result.walks);
        mmu_requests += static_cast<double>(r->result.mmu_requests);
        l2_misses += static_cast<double>(r->result.l2_tlb_misses);
        faults += static_cast<double>(r->result.guest_faults
                                      + r->result.host_faults);
        prefault_faults += static_cast<double>(r->prefault_faults);
        cycles += static_cast<double>(r->result.cycles);
        instructions += static_cast<double>(r->result.instructions);
    }

    // The model's per-access loop, as the replay crosses it.
    const Layer loop_layers[] = {Layer::Next, Layer::EnsureResident,
                                 Layer::TlbLookup, Layer::WalkTranslate,
                                 Layer::TlbInstall, Layer::MemAccess};
    double loop_ns = 0;
    for (Layer l : loop_layers)
        loop_ns += static_cast<double>(merged.total(l).ns);
    const double replayed =
        static_cast<double>(merged.total(Layer::Access).calls);
    const double timed_med = median(timed);

    const auto ns = [&](Layer l) { return merged.meanNs(l); };
    return {
        {"workloads.setup_s", median(wsetup), "s"},
        {"workloads.next_ns", ns(Layer::Next), "ns"},
        {"os.construct_s", median(construct), "s"},
        {"os.prefault_s", median(prefault), "s"},
        {"os.faults", faults, "count"},
        {"os.prefault_ns_per_fault",
         ratio(first.prefault_s * 1e9, prefault_faults), "ns"},
        {"os.ensure_resident_ns", ns(Layer::EnsureResident), "ns"},
        {"os.full_translate_ns", ns(Layer::FullTranslate), "ns"},
        {"os.mutate_ns", ns(Layer::OsMutate), "ns"},
        {"pt.ecpt_lookup_ns", ns(Layer::EcptLookup), "ns"},
        {"pt.cuckoo_kicks", registrySum(runs, "cuckoo.kicks", ""), "count"},
        {"pt.cuckoo_resizes",
         registrySum(runs, "guest.cuckoo.", ".resizes")
             + registrySum(runs, "host.cuckoo.", ".resizes"),
         "count"},
        {"pt.host_pte_load_factor",
         ratio(registrySum(runs, "host.cuckoo.pte.load_factor", ""),
               static_cast<double>(runs.size())),
         "ratio"},
        {"mmu.tlb_lookup_ns", ns(Layer::TlbLookup), "ns"},
        {"mmu.tlb_install_ns", ns(Layer::TlbInstall), "ns"},
        {"mmu.l2_tlb_miss_ratio", ratio(l2_misses, measured), "ratio"},
        {"mmu.stc_hit_ratio",
         meanOf(runs, [](const SimRun &r) { return r.result.stc_hit_rate; }),
         "ratio"},
        {"mmu.cwc_hcwc_step3_pte_hit_ratio",
         meanOf(runs,
                [](const SimRun &r) { return r.result.hcwc_pte_step3_hit; }),
         "ratio"},
        {"walk.translate_ns", ns(Layer::WalkTranslate), "ns"},
        {"walk.walks_per_access", ratio(walks, measured), "ratio"},
        {"walk.mem_accesses_per_walk", ratio(mmu_requests, walks), "count"},
        {"walk.coalesced_frac",
         ratio(metricSum(runs, "walk.coalesced"), walks), "ratio"},
        {"mem.access_ns", ns(Layer::MemAccess), "ns"},
        {"mem.batch_ns", ns(Layer::MemBatch), "ns"},
        {"mem.avg_mshrs",
         meanOf(runs, [](const SimRun &r) { return r.result.avg_mshrs; }),
         "count"},
        {"mem.dram_row_hit_ratio",
         meanOf(runs,
                [](const SimRun &r) { return r.result.dram_row_hit_rate; }),
         "ratio"},
        {"sim.timed_s", timed_med, "s"},
        {"sim.self_ns_per_access",
         ratio(timed_med * 1e9, first.accesses) - ratio(loop_ns, replayed),
         "ns"},
        {"sim.cycles", cycles, "cycles"},
        {"sim.instructions", instructions, "count"},
        {"coherence.round_ns", ns(Layer::CoherenceRound), "ns"},
        {"coherence.rounds", metricSum(runs, "shootdown.rounds"), "count"},
        {"coherence.invalidations",
         metricSum(runs, "shootdown.invalidations"), "count"},
        {"coherence.walk_replays", metricSum(runs, "shootdown.walk_replays"),
         "count"},
        {"exec.job_s", median(job_s), "s"},
        {"exec.queue_wait_s", median(wait), "s"},
        {"exec.parallel_eff", median(eff), "ratio"},
        {"host.calib_s", median(calib), "s"},
        {"trace.overhead_frac",
         ratio(ratio(traced_s, traced_n), ratio(untraced_s, untraced_n)) - 1.0,
         "ratio"},
        {"fail_frac",
         ratio(static_cast<double>(checks.failed),
               static_cast<double>(checks.attempted)),
         "ratio"},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const WorkloadDef *def = nullptr;
    for (const WorkloadDef &d : workloadDefs())
        if (d.name == args.workload)
            def = &d;
    if (!def)
        usage(("unknown workload '" + args.workload + "'").c_str());

    const auto begin = Clock::now();
    Checks checks;

    // A traced run starts with the plain reference: the same
    // simulations and seeds through runWith with the bare makeWorkload
    // factory (runSim's own path). Untraced runs spend their whole
    // budget on repetitions and hold each to the first one.
    std::optional<Rep> reference;
    double peak_rss_mb = 0;
    if (args.trace) {
        RunOptions plain;
        plain.wrapped = false;
        plain.epoch = begin;
        reference = runRep(*def, layoutSeed(args.seed, 0), plain);
        std::fprintf(stderr, "[perfbench] %s: plain reference run %.2f s\n",
                     def->name.c_str(), secondsBetween(begin, Clock::now()));
        checks.add(reference->engine);
        for (const SimRun &s : reference->sims)
            checks.add(s.checks);
        peak_rss_mb = peakRssMb();
    }

    // Timed repetitions until the budget is spent, at least three
    // layouts' worth; a traced run spends half its budget on
    // repetitions and the rest on the replay in its last one. The last
    // repetition may overrun by half a repetition, so a run takes
    // about --seconds on average.
    const double rep_budget = args.trace ? 0.5 * args.seconds : args.seconds;
    const std::size_t min_reps = args.trace ? 1 : 3 * runs_per_layout;
    const std::vector<int> cpus = allowedCpus();
    const auto measure_start = Clock::now();
    std::vector<Rep> reps;
    for (;;) {
        const double elapsed = secondsBetween(measure_start, Clock::now());
        const double per_rep =
            reps.empty() ? 0.0 : elapsed / static_cast<double>(reps.size());
        const bool more = reps.size() < min_reps
            || elapsed + 0.5 * per_rep <= rep_budget;
        RunOptions opt;
        opt.epoch = begin;
        if (args.trace && !more)
            opt.replay_s =
                std::max(1.0, args.seconds - elapsed - per_rep);
        else if (!more)
            break;
        const auto rep_start = Clock::now();
        if (!def->sweep)
            pinRepetition(cpus, static_cast<long>(reps.size()));
        reps.push_back(
            runRep(*def,
                   layoutSeed(args.seed, reps.size() / runs_per_layout),
                   opt));
        std::fprintf(stderr,
                     "[perfbench] %s: repetition %zu wall %.3f s, cpu "
                     "%.3f s, calibration %.4f s, at reference speed "
                     "%.3f s; with checks%s %.2f s\n",
                     def->name.c_str(), reps.size(), reps.back().wall_s,
                     totals(reps.back()).cpu_s, totals(reps.back()).calib_s,
                     totals(reps.back()).run_s,
                     opt.replay_s > 0 ? " and replay" : "",
                     secondsBetween(rep_start, Clock::now()));
        // Peak RSS of one cold pass over the workload. Later
        // repetitions reuse (and, with the sweep's fresh worker
        // threads, spread over more) allocator arenas, so the process
        // high-water mark after them says more about glibc than about
        // the simulator.
        if (peak_rss_mb == 0)
            peak_rss_mb = peakRssMb();
        if (opt.replay_s > 0)
            break;
    }
    pinRepetition(cpus, -1);

    // Every repetition's simulated scalars must equal those of the
    // first run of the same layout: the plain reference for layout 0
    // in a traced run, otherwise the layout's first repetition.
    for (std::size_t k = 0; k < reps.size(); ++k) {
        const Rep &rep = reps[k];
        const std::size_t first = k - k % runs_per_layout;
        const bool vs_plain = reference && first == 0;
        const Rep &anchor = vs_plain ? *reference : reps[first];
        const std::string anchor_name = vs_plain
            ? std::string("the plain run of the same seeds")
            : "repetition " + std::to_string(first + 1);
        checks.add(rep.engine);
        for (std::size_t i = 0; i < rep.sims.size(); ++i) {
            const SimRun &s = rep.sims[i];
            checks.add(s.checks);
            if (&rep != &anchor && s.ok && anchor.sims[i].ok)
                checks.expect(s.scalars == anchor.sims[i].scalars,
                              s.label + ": simulated scalars differ from "
                                  + anchor_name);
        }
    }

    std::vector<double> run, setup, rate;
    for (const Rep &rep : reps) {
        const RepTotals t = totals(rep);
        run.push_back(t.run_s);
        setup.push_back(t.setup_s);
        rate.push_back(ratio(t.accesses, t.timed_s));
    }
    const double fail_frac = ratio(static_cast<double>(checks.failed),
                                   static_cast<double>(checks.attempted));
    const std::vector<Metric> e2e = {
        {"run_s", median(run), "s"},
        {"setup_s", median(setup), "s"},
        {"accesses_per_s", median(rate), "1/s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
    const std::vector<Metric> layers =
        args.trace ? perLayerMetrics(reps, checks) : std::vector<Metric>{};

    const std::string prov =
        provenanceJson(args, static_cast<int>(reps.size()));
    std::printf("provenance %s\n", prov.c_str());
    for (const Metric &m : e2e)
        std::printf("%-16s %-28s %.6g %s\n", args.workload.c_str(),
                    m.name.c_str(), m.value, m.unit);
    std::printf("%-16s %-28s %.6g ratio (failed %llu of %llu attempted, "
                "%llu skipped)\n",
                args.workload.c_str(), "fail_frac", fail_frac,
                static_cast<unsigned long long>(checks.failed),
                static_cast<unsigned long long>(checks.attempted),
                static_cast<unsigned long long>(checks.skipped));
    for (const std::string &m : checks.messages)
        std::printf("check failed: %s\n", m.c_str());
    for (const Metric &m : layers)
        std::printf("%-16s %-34s %.6g %s\n", args.workload.c_str(),
                    m.name.c_str(), m.value, m.unit);

    // The full record, provenance first, beside the trace.
    std::string samples = "[";
    for (std::size_t i = 0; i < reps.size(); ++i) {
        const RepTotals t = totals(reps[i]);
        samples += std::string(i ? ", " : "") + "{\"wall_s\": " + num(t.wall_s)
            + ", \"cpu_s\": " + num(t.cpu_s)
            + ", \"calib_s\": " + num(t.calib_s)
            + ", \"run_s\": " + num(t.run_s)
            + ", \"setup_s\": " + num(t.setup_s) + ", \"timed_s\": "
            + num(t.timed_s) + ", \"accesses\": " + num(t.accesses) + "}";
    }
    samples += "]";
    const std::string stem = args.out_dir + "/" + args.workload + "-seed"
        + std::to_string(args.seed) + "-trace" + (args.trace ? "1" : "0");
    if (std::FILE *f = std::fopen((stem + ".json").c_str(), "w")) {
        std::fprintf(f,
                     "{\"provenance\": %s,\n \"end_to_end\": %s,\n"
                     " \"fail_frac\": %s, \"attempted\": %llu, "
                     "\"failed\": %llu, \"skipped\": %llu,\n"
                     " \"per_layer\": %s,\n \"repetitions\": %s}\n",
                     prov.c_str(), metricsJson(e2e).c_str(),
                     num(fail_frac).c_str(),
                     static_cast<unsigned long long>(checks.attempted),
                     static_cast<unsigned long long>(checks.failed),
                     static_cast<unsigned long long>(checks.skipped),
                     metricsJson(layers).c_str(), samples.c_str());
        std::fclose(f);
    } else {
        std::fprintf(stderr, "warning: cannot write %s.json\n", stem.c_str());
    }
    if (args.trace) {
        std::vector<const SpanRecorder *> recs;
        for (const SimRun &s : reps.back().sims)
            if (s.spans)
                recs.push_back(s.spans.get());
        if (!perfbench::writeChromeTrace((stem + ".trace.json").c_str(),
                                         recs))
            std::fprintf(stderr, "warning: cannot write %s.trace.json\n",
                         stem.c_str());
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                checks.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(checks.attempted),
                static_cast<unsigned long long>(checks.failed),
                metricsJson(args.trace ? layers : e2e).c_str());
    std::fflush(stdout);
    return 0;
}
