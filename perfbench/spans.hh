/**
 * @file
 * In-memory span recorder for the benchmark's traced replay.
 *
 * The harness opens a span around each public layer call it makes
 * (workload, os, pt, mmu, walk, mem, coherence). A span has a layer
 * name, host start/end times, its parent span and the id of the access
 * it belongs to; a span's self time is its duration minus the time its
 * children cover. Every span is folded into per-layer totals; the
 * first `capacity` spans are also kept as records and written out at
 * the end in the Chrome trace-event format the simulator's own tracer
 * uses ({"traceEvents": [...]}).
 */

#ifndef NECPT_PERFBENCH_SPANS_HH
#define NECPT_PERFBENCH_SPANS_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace perfbench
{

/** Layer boundaries the replay crosses, one span name each. */
enum class Layer : std::uint8_t
{
    Access,         //!< one replayed access (parent of the calls below)
    Next,           //!< Workload::next
    EnsureResident, //!< NestedSystem::ensureResident
    TlbLookup,      //!< TlbHierarchy::lookup
    WalkTranslate,  //!< Walker::translate (or startWalk + drain)
    TlbInstall,     //!< TlbHierarchy::install
    MemAccess,      //!< MemoryHierarchy::access (data side)
    FullTranslate,  //!< NestedSystem::fullTranslate
    EcptLookup,     //!< EcptPageTable::lookup (guest and host)
    MemBatch,       //!< MemoryHierarchy::batchAccess of ECPT probes
    OsMutate,       //!< migrate / balloon / THP / protect
    CoherenceRound, //!< queueInvalidation + beginRound + finishRound
    Count
};

constexpr std::size_t num_layers = static_cast<std::size_t>(Layer::Count);

inline const char *
layerName(Layer layer)
{
    static constexpr std::array<const char *, num_layers> names = {
        "access",        "workloads.next", "os.ensure_resident",
        "mmu.tlb_lookup", "walk.translate", "mmu.tlb_install",
        "mem.access",    "os.full_translate", "pt.ecpt_lookup",
        "mem.batch",     "os.mutate",      "coherence.round",
    };
    return names[static_cast<std::size_t>(layer)];
}

class SpanRecorder
{
  public:
    using Clock = std::chrono::steady_clock;

    struct Total
    {
        std::uint64_t calls = 0;
        std::int64_t ns = 0; //!< inclusive of children
    };

    struct Span
    {
        Layer layer;
        std::int32_t parent; //!< index into the kept records, -1 = root
        std::uint32_t lane;  //!< trace pid: the simulation (sweep job)
        std::uint32_t core;  //!< trace tid
        std::uint64_t access;
        std::int64_t start_ns;
        std::int64_t end_ns;
        std::int64_t self_ns;
    };

    SpanRecorder(Clock::time_point epoch, std::uint32_t lane,
                 std::size_t capacity)
        : epoch_(epoch), lane_(lane), capacity_(capacity)
    {
        kept_.reserve(capacity);
    }

    void
    begin(Layer layer, std::uint64_t access, std::uint32_t core)
    {
        Open &o = stack_[depth_++];
        o.layer = layer;
        o.child_ns = 0;
        o.index = -1;
        if (kept_.size() < capacity_) {
            o.index = static_cast<std::int32_t>(kept_.size());
            kept_.push_back({layer, parentIndex(), lane_, core, access,
                             0, 0, 0});
        }
        o.start_ns = nowNs();
    }

    void
    end()
    {
        const std::int64_t stop = nowNs();
        Open &o = stack_[--depth_];
        const std::int64_t dur = stop - o.start_ns;
        const std::int64_t self = dur - o.child_ns;
        Total &t = totals_[static_cast<std::size_t>(o.layer)];
        ++t.calls;
        t.ns += dur;
        if (depth_ > 0)
            stack_[depth_ - 1].child_ns += dur;
        if (o.index >= 0) {
            Span &s = kept_[static_cast<std::size_t>(o.index)];
            s.start_ns = o.start_ns;
            s.end_ns = stop;
            s.self_ns = self;
        }
    }

    const Total &
    total(Layer layer) const
    {
        return totals_[static_cast<std::size_t>(layer)];
    }

    /** Mean inclusive host ns per call (0 when the layer never ran). */
    double
    meanNs(Layer layer) const
    {
        const Total &t = total(layer);
        return t.calls ? static_cast<double>(t.ns)
                             / static_cast<double>(t.calls)
                       : 0.0;
    }

    /** Fold another recorder's totals in (sweep jobs). */
    void
    addTotals(const SpanRecorder &other)
    {
        for (std::size_t i = 0; i < num_layers; ++i) {
            totals_[i].calls += other.totals_[i].calls;
            totals_[i].ns += other.totals_[i].ns;
        }
    }

    const std::vector<Span> &spans() const { return kept_; }

  private:
    struct Open
    {
        Layer layer = Layer::Access;
        std::int32_t index = -1;
        std::int64_t start_ns = 0;
        std::int64_t child_ns = 0;
    };

    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_)
            .count();
    }

    std::int32_t
    parentIndex() const
    {
        return depth_ > 1 ? stack_[depth_ - 2].index : -1;
    }

    Clock::time_point epoch_;
    std::uint32_t lane_;
    std::size_t capacity_;
    std::array<Open, 8> stack_{};
    std::size_t depth_ = 0;
    std::array<Total, num_layers> totals_{};
    std::vector<Span> kept_;
};

/** Opens a span for the enclosing scope; a null recorder records
 *  nothing and reads no clock (the untraced replay blocks). */
class Scope
{
  public:
    Scope(SpanRecorder *rec, Layer layer, std::uint64_t access,
          std::uint32_t core)
        : rec_(rec)
    {
        if (rec_)
            rec_->begin(layer, access, core);
    }

    ~Scope()
    {
        if (rec_)
            rec_->end();
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanRecorder *rec_;
};

/**
 * Write every kept span of @p recorders as Chrome trace-event JSON:
 * complete ("X") events in microseconds, pid = simulation lane,
 * tid = simulated core, args = access id, parent span and self time.
 */
inline bool
writeChromeTrace(const char *path,
                 const std::vector<const SpanRecorder *> &recorders)
{
    std::FILE *f = std::fopen(path, "w");
    if (!f)
        return false;
    std::fputs("{\"traceEvents\":[\n", f);
    bool first = true;
    for (const SpanRecorder *rec : recorders) {
        const auto &spans = rec->spans();
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const SpanRecorder::Span &s = spans[i];
            std::fprintf(
                f,
                "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%u,\"tid\":%u,"
                "\"args\":{\"access\":%llu,\"span\":%zu,\"parent\":%d,"
                "\"self_ns\":%lld}}",
                first ? "" : ",\n", layerName(s.layer),
                static_cast<double>(s.start_ns) / 1000.0,
                static_cast<double>(s.end_ns - s.start_ns) / 1000.0,
                s.lane, s.core,
                static_cast<unsigned long long>(s.access), i, s.parent,
                static_cast<long long>(s.self_ns));
            first = false;
        }
    }
    std::fputs("\n],\"displayTimeUnit\":\"ns\"}\n", f);
    return std::fclose(f) == 0;
}

} // namespace perfbench

#endif // NECPT_PERFBENCH_SPANS_HH
