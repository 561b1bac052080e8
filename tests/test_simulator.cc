/** @file End-to-end simulator tests: determinism, sanity, and the
 *  paper's headline ordering on a scaled-down run. */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "coherence/churn.hh"
#include "common/error.hh"
#include "common/fault.hh"
#include "common/metrics.hh"
#include "common/trace_events.hh"
#include "exec/engine.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "sim/timeseries.hh"

namespace necpt
{

namespace
{
SimParams
quickParams()
{
    SimParams params;
    params.warmup_accesses = 20'000;
    params.measure_accesses = 60'000;
    params.scale_denominator = 256;
    return params;
}

/** Everything observable from one run, rendered to comparable form. */
struct RunOutputs
{
    std::string snapshot;   //!< result fields + full scalar registry
    std::string trace;      //!< canonical Chrome trace JSON bytes
    std::vector<std::string> ts_names;
    std::vector<std::vector<double>> ts_rows;
};

/** A 4-core run with every deterministic perturbation source armed:
 *  churn rounds, and faults that stretch and divert walks. @p tag
 *  keeps the scratch trace file of runs sharing a process apart. */
RunOutputs
perturbedRun(int mlp, bool coalesce, int tag = 0)
{
    SimParams params;
    params.warmup_accesses = 1000;
    params.measure_accesses = 5000;
    params.cores = 4;
    params.max_outstanding_walks = mlp;
    params.walk_coalescing = coalesce;
    params.scale_denominator = 64;
    params.churn = parseChurnSpec(
        "migrate:5000:8,balloon:20000:16,protect:15000:4,batch:8");
    params.faults =
        parseFaultSpec("kicks:0.02,resize:0.01,mem:0.01:400,"
                       "shootdown:0.05");

    TraceBuffer tracer(TraceBuffer::default_capacity, 16);
    params.tracer = &tracer;
    TimeSeriesBuffer series(2000);
    params.timeseries = &series;

    Simulator sim(makeConfig(ConfigId::NestedEcpt), params);
    const SimResult result = sim.run("GUPS");

    MetricsRegistry reg;
    sim.exportMetrics(reg);

    RunOutputs out;
    std::ostringstream snap;
    char value[64];
    auto emit = [&](const std::string &name, double v) {
        std::snprintf(value, sizeof value, "%.17g", v);
        snap << name << " " << value << "\n";
    };
    emit("result.cycles", static_cast<double>(result.cycles));
    emit("result.instructions",
         static_cast<double>(result.instructions));
    emit("result.walks", static_cast<double>(result.walks));
    emit("result.mmu_requests",
         static_cast<double>(result.mmu_requests));
    emit("result.mmu_busy_cycles",
         static_cast<double>(result.mmu_busy_cycles));
    for (const auto &[name, v] : reg.scalarSnapshot())
        emit(name, v);
    out.snapshot = snap.str();

    // ctest -j runs each test in its own process but a shared cwd;
    // the pid and tag keep concurrent runs from clobbering each
    // other's scratch file.
    const std::string trace_path = "repeat_run_trace_mlp"
        + std::to_string(mlp) + (coalesce ? "_co" : "") + "_p"
        + std::to_string(::getpid()) + "_t" + std::to_string(tag)
        + ".json";
    EXPECT_TRUE(writeChromeTrace(trace_path, tracer, "sim",
                                 /*canonical=*/true));
    std::ifstream in(trace_path, std::ios::binary);
    std::stringstream bytes;
    bytes << in.rdbuf();
    out.trace = bytes.str();
    std::remove(trace_path.c_str());

    out.ts_names = series.series();
    out.ts_rows = series.samples();
    return out;
}

/** Single-run reference outputs, computed once per configuration. */
const RunOutputs &
reference(int mlp, bool coalesce)
{
    static const RunOutputs serialized = perturbedRun(1, false);
    static const RunOutputs overlapped = perturbedRun(4, false);
    static const RunOutputs coalesced = perturbedRun(4, true);
    if (coalesce)
        return coalesced;
    return mlp == 1 ? serialized : overlapped;
}

/** Run @p threads same-seed copies of the perturbed configuration at
 *  once, one per host thread, the way a sweep's --jobs workers do:
 *  each copy's snapshot, canonical trace and timeseries must match
 *  the single-run reference byte for byte. */
void
expectConcurrentIdentical(int threads, int mlp, bool coalesce)
{
    const RunOutputs &ref = reference(mlp, coalesce);
    std::vector<RunOutputs> got(threads);
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t)
        workers.emplace_back([&got, t, mlp, coalesce] {
            got[t] = perturbedRun(mlp, coalesce, t + 1);
        });
    for (auto &w : workers)
        w.join();

    for (int t = 0; t < threads; ++t) {
        SCOPED_TRACE("thread " + std::to_string(t) + " of "
                     + std::to_string(threads));
        EXPECT_EQ(ref.snapshot, got[t].snapshot)
            << "scalar snapshot diverged from the single run";
        EXPECT_EQ(ref.trace, got[t].trace)
            << "canonical walk trace diverged from the single run";
        EXPECT_EQ(ref.ts_names, got[t].ts_names);
        EXPECT_EQ(ref.ts_rows, got[t].ts_rows)
            << "timeseries samples diverged from the single run";
    }
}

class ParallelSimDeterminism : public ::testing::TestWithParam<int>
{};
} // namespace

TEST(Simulator, RunsAndPopulatesResult)
{
    const auto cfg = makeConfig(ConfigId::NestedEcptThp);
    const SimResult r = runSim(cfg, quickParams(), "GUPS");
    EXPECT_GT(r.instructions, 100'000u);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.walks, 0u);
    EXPECT_GT(r.mmu_busy_cycles, 0u);
    EXPECT_GT(r.mmu_rpki, 0.0);
    EXPECT_GT(r.l2_tlb_misses, 0u);
    EXPECT_GE(r.stc_hit_rate, 0.0);
    EXPECT_GT(r.pte_bytes_total, 0u);
    EXPECT_EQ(r.app, "GUPS");
}

TEST(Simulator, Deterministic)
{
    const auto cfg = makeConfig(ConfigId::NestedRadix);
    const SimResult a = runSim(cfg, quickParams(), "BFS");
    const SimResult b = runSim(cfg, quickParams(), "BFS");
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.walks, b.walks);
    EXPECT_EQ(a.mmu_busy_cycles, b.mmu_busy_cycles);
}

TEST(Simulator, AllTable1ConfigsRun)
{
    for (const ConfigId id : table1Configs()) {
        const SimResult r =
            runSim(makeConfig(id), quickParams(), "BFS");
        EXPECT_GT(r.cycles, 0u) << configName(id);
        EXPECT_GT(r.walks, 0u) << configName(id);
    }
}

TEST(Simulator, BaselineConfigsRun)
{
    for (const ConfigId id :
         {ConfigId::PlainNestedEcptThp, ConfigId::AgilePagingIdealThp,
          ConfigId::PomTlbThp, ConfigId::FlatNestedThp}) {
        const SimResult r =
            runSim(makeConfig(id), quickParams(), "MUMmer");
        EXPECT_GT(r.cycles, 0u) << configName(id);
    }
}

/** The paper's central claim, on a tiny run: Nested ECPTs beat Nested
 *  Radix on the TLB-hostile GUPS. */
TEST(Simulator, NestedEcptBeatsNestedRadixOnGups)
{
    SimParams params = quickParams();
    params.measure_accesses = 120'000;
    const SimResult radix =
        runSim(makeConfig(ConfigId::NestedRadix), params, "GUPS");
    const SimResult ecpt =
        runSim(makeConfig(ConfigId::NestedEcpt), params, "GUPS");
    EXPECT_LT(ecpt.cycles, radix.cycles);
    // And it spends fewer MMU busy cycles (Figure 10).
    EXPECT_LT(ecpt.mmu_busy_cycles, radix.mmu_busy_cycles);
}

TEST(Simulator, NativeFasterThanNested)
{
    const SimResult native =
        runSim(makeConfig(ConfigId::Radix), quickParams(), "BFS");
    const SimResult nested =
        runSim(makeConfig(ConfigId::NestedRadix), quickParams(), "BFS");
    EXPECT_LT(native.cycles, nested.cycles);
}

TEST(Simulator, ThpReducesWalks)
{
    const SimResult flat =
        runSim(makeConfig(ConfigId::NestedRadix), quickParams(), "GUPS");
    const SimResult thp = runSim(makeConfig(ConfigId::NestedRadixThp),
                                 quickParams(), "GUPS");
    // GUPS is fully huge-page friendly: far fewer L2 TLB misses.
    EXPECT_LT(thp.l2_tlb_misses, flat.l2_tlb_misses / 2);
    EXPECT_LT(thp.cycles, flat.cycles);
}

TEST(Simulator, WalkKindsPopulatedForNestedEcpt)
{
    const SimResult r = runSim(makeConfig(ConfigId::NestedEcptThp),
                               quickParams(), "GUPS");
    double gsum = 0, hsum = 0;
    for (int k = 0; k < 4; ++k) {
        gsum += r.guest_kind_frac[k];
        hsum += r.host_kind_frac[k];
    }
    EXPECT_NEAR(gsum, 1.0, 1e-9);
    EXPECT_NEAR(hsum, 1.0, 1e-9);
    // Steps report sensible parallel-access counts.
    for (int s = 0; s < 3; ++s)
        EXPECT_GE(r.step_avg[s], 1.0);
}

/** Overlapped walks (max_outstanding_walks > 1) stay a pure function
 *  of the inputs: the event scheduler's (cycle, priority, sequence)
 *  order admits no wall-clock or iteration-order nondeterminism. */
TEST(Simulator, OverlappedWalksDeterministic)
{
    SimParams params = quickParams();
    params.max_outstanding_walks = 4;
    const auto cfg = makeConfig(ConfigId::NestedEcpt);
    const SimResult a = runSim(cfg, params, "GUPS");
    const SimResult b = runSim(cfg, params, "GUPS");
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.walks, b.walks);
    EXPECT_EQ(a.mmu_busy_cycles, b.mmu_busy_cycles);
    EXPECT_DOUBLE_EQ(a.walk_inflight_avg, b.walk_inflight_avg);
    EXPECT_EQ(a.walk_inflight_max, b.walk_inflight_max);
}

/** The 8-core contention smoke: with the cap at 4 the cores really do
 *  keep multiple walks in flight (walk.inflight > 1), and raising the
 *  cap never slows the machine down relative to serialized walks. */
TEST(Simulator, OverlappedWalksShowConcurrency)
{
    SimParams params = quickParams();
    params.cores = 8;
    params.warmup_accesses = 4'000;
    params.measure_accesses = 12'000;
    ExperimentConfig cfg = makeConfig(ConfigId::NestedEcpt);
    configureSharedResources(cfg, 8);

    const SimResult serial = runSim(cfg, params, "GUPS");
    params.max_outstanding_walks = 4;
    const SimResult mlp = runSim(cfg, params, "GUPS");

    EXPECT_GT(mlp.walk_inflight_avg, 1.0);
    EXPECT_GT(mlp.walk_inflight_max, 1u);
    EXPECT_DOUBLE_EQ(mlp.metrics.at("walk.inflight"),
                     mlp.walk_inflight_avg);
    // Overlapping independent misses can only help execution time.
    EXPECT_LT(mlp.cycles, serial.cycles);
    // Concurrent walks for one page are not coalesced (GUPS's
    // read-modify-write pairs re-walk a page whose first walk is
    // still in flight), so the walk count can only grow.
    EXPECT_GE(mlp.walks, serial.walks);
}

// Same-seed runs under churn and fault injection, on 2 and 8 host
// threads at once. mlp=1: serialized walks, the legacy schedule.
// mlp=4: overlapped walk machines plus the memory-completion pump.
// Coalesced: the walk-MSHR park/fan-out on top of overlapped walks,
// with churn and shootdown faults invalidating coalescer entries
// mid-flight. Any state shared between simulations (or any
// nondeterminism within one) shows up as a diverged copy.
TEST_P(ParallelSimDeterminism, SerializedWalksBitIdentical)
{
    expectConcurrentIdentical(GetParam(), 1, false);
}

TEST_P(ParallelSimDeterminism, OverlappedWalksBitIdentical)
{
    expectConcurrentIdentical(GetParam(), 4, false);
}

TEST_P(ParallelSimDeterminism, CoalescedWalksBitIdentical)
{
    expectConcurrentIdentical(GetParam(), 4, true);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelSimDeterminism,
                         ::testing::Values(2, 8));

// The coalescer's staleness contract: a waiter parked on a primary
// whose walk raced an invalidation must retire the *replayed*
// translation, never the stale one. The fan-out happens after the
// primary's replay (and NECPT_ASSERT(tr.valid) guards every retire),
// so the test's job is to prove the race actually occurs — merges and
// replays non-zero in one run — and that a same-seed repeat is still
// bit-identical. Churn here is far denser than the parallel runs above
// (a full migrate+protect batch every 100 cycles): the coherence
// directory's 256-record ring overflows past every in-flight walk's
// epoch, forcing its conservative invalidated-since answer and with it
// the replay path on walks whose waiters are parked.
TEST(WalkCoalescing, WaitersAndReplaysCooccurUnderChurn)
{
    auto heavyChurnRun = [] {
        SimParams params;
        params.warmup_accesses = 500;
        params.measure_accesses = 2000;
        params.cores = 2;
        params.max_outstanding_walks = 4;
        params.walk_coalescing = true;
        params.scale_denominator = 64;
        params.churn =
            parseChurnSpec("migrate:100:64,protect:100:64,batch:64");
        params.faults = parseFaultSpec("shootdown:0.05");

        Simulator sim(makeConfig(ConfigId::NestedEcpt), params);
        sim.run("GUPS");
        MetricsRegistry reg;
        sim.exportMetrics(reg);
        return reg.scalarSnapshot();
    };

    const auto first = heavyChurnRun();
    const auto again = heavyChurnRun();
    EXPECT_EQ(first, again)
        << "replay + coalesce interplay diverged between same-seed runs";

    double coalesced = 0.0, replays = 0.0;
    for (const auto &[name, value] : first) {
        if (name.find(".coalesced") != std::string::npos)
            coalesced += value;
        if (name.find("walk_replays") != std::string::npos)
            replays += value;
    }
    EXPECT_GT(coalesced, 0.0)
        << "no walk ever merged: the workload no longer exercises "
           "the coalescer";
    EXPECT_GT(replays, 0.0)
        << "no walk ever raced an invalidation: the staleness path "
           "is untested";
}

TEST(Simulator, InvalidOutstandingWalksRejected)
{
    SimParams params = quickParams();
    params.max_outstanding_walks = 0;
    EXPECT_THROW(
        Simulator(makeConfig(ConfigId::NestedEcpt), params),
        ConfigError);
}

TEST(ExperimentHelpers, GridAndSpeedup)
{
    SimParams params = quickParams();
    params.measure_accesses = 30'000;
    std::vector<JobSpec> specs;
    for (const ConfigId id :
         {ConfigId::NestedRadix, ConfigId::NestedEcpt}) {
        const ExperimentConfig config = makeConfig(id);
        JobSpec spec;
        spec.key = config.name + "/BFS";
        spec.fn = [config, params](const JobContext &) {
            JobOutput out;
            out.sim = runSim(config, params, "BFS");
            return out;
        };
        specs.push_back(std::move(spec));
    }
    SweepOptions options;
    options.jobs = 2;
    options.progress = nullptr;
    const ResultGrid grid = SweepEngine(options).run(specs).toGrid();
    EXPECT_TRUE(grid.has("Nested Radix", "BFS"));
    const double s =
        speedupOver(grid, "Nested Radix", "Nested ECPTs", "BFS");
    EXPECT_GT(s, 0.5);
    EXPECT_LT(s, 3.0);
}

TEST(ExperimentHelpers, EnvDefaults)
{
    const SimParams params = paramsFromEnv();
    EXPECT_GT(params.measure_accesses, 0u);
    EXPECT_GE(appsFromEnv().size(), 1u);
    EXPECT_GE(jobsFromEnv(), 1);
}

} // namespace necpt
