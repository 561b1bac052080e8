/** @file EventScheduler: the (cycle, priority, sequence) order and the
 *  memory-completion pump calendar merged into it at priority -1. */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/sched.hh"

namespace necpt
{

namespace
{

/** Records every handler and pump fire as a tag, in run order. */
struct Recorder
{
    std::vector<std::string> log;

    void
    pump(double cycle)
    {
        log.push_back("pump@" + std::to_string(static_cast<int>(cycle)));
    }
};

struct Note
{
    Recorder *rec;
    const char *tag;
    void operator()() const { rec->log.push_back(tag); }
};

/** Captures (seq, parent, kind) of every reported event. */
struct Edges final : EventEdgeSink
{
    struct Edge
    {
        std::uint64_t seq, parent;
        std::uint8_t kind;
    };
    std::vector<Edge> edges;

    void
    onEvent(std::uint64_t seq, std::uint64_t parent, double, std::int64_t,
            std::uint8_t kind) override
    {
        edges.push_back({seq, parent, kind});
    }
};

} // namespace

TEST(EventScheduler, PumpsRunAtPriorityMinusOneWithinTheirCycle)
{
    Recorder rec;
    EventScheduler sched;
    sched.setPumpSink(
        EventScheduler::PumpSink::bind<&Recorder::pump>(&rec));
    sched.at(10.0, 0, Note{&rec, "core0@10"});
    sched.armPump(12.0);
    sched.at(10.0, -2, Note{&rec, "coherence@10"});
    sched.armPump(10.0);
    sched.at(5.0, 3, Note{&rec, "core3@5"});
    sched.at(12.0, 1, Note{&rec, "core1@12"});
    while (!sched.empty())
        sched.runNext();
    EXPECT_EQ(rec.log,
              (std::vector<std::string>{"core3@5", "coherence@10",
                                        "pump@10", "core0@10", "pump@12",
                                        "core1@12"}));
}

TEST(EventScheduler, SameCyclePumpsCollapseAndNumberAtFireTime)
{
    Recorder rec;
    Edges edges;
    EventScheduler sched;
    sched.setEdgeSink(&edges);
    sched.setPumpSink(
        EventScheduler::PumpSink::bind<&Recorder::pump>(&rec), 7);
    sched.armPump(20.0);
    sched.armPump(20.0);
    sched.armPump(20.0);
    const std::uint64_t step = sched.at(30.0, 0, Note{&rec, "core0@30"});
    while (!sched.empty())
        sched.runNext();

    EXPECT_EQ(rec.log,
              (std::vector<std::string>{"pump@20", "core0@30"}));
    // The heap event took sequence 0 when scheduled; the one collapsed
    // pump fire drew the next number when it ran, with no parent.
    ASSERT_EQ(edges.edges.size(), 2u);
    EXPECT_EQ(edges.edges[0].seq, step);
    EXPECT_EQ(edges.edges[1].seq, step + 1);
    EXPECT_EQ(edges.edges[1].parent, EventScheduler::no_event);
    EXPECT_EQ(edges.edges[1].kind, 7);
}

} // namespace necpt
