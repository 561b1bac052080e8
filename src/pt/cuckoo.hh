/**
 * @file
 * Elastic cuckoo hash table (Section 2.3, following Skarlatos et al.,
 * ASPLOS'20).
 *
 * A d-ary cuckoo hash table where each way is a contiguous array of
 * cache-line-sized slots in (simulated) physical memory. The table is
 * *elastic*: when the load factor crosses a threshold, a new generation
 * of 2x capacity is allocated and entries migrate gradually (a few per
 * subsequent insert), so the table never stops the world. While a resize
 * is in flight, a key can live in either generation and hardware probes
 * must cover both — probeAddrs() reflects that.
 *
 * Cuckoo displacements and resize migrations *move* entries between ways
 * and addresses. The table reports each move through a callback so the
 * OS can update Cuckoo Walk Tables, and counts moves — the reason the
 * paper's designs never cache hPTE->gPTE pointers (Section 4.4).
 *
 * Host storage is kept apart from the simulated layout. A simulated
 * slot is `slot_bytes` at `base + idx * slot_bytes`, as the hardware
 * sees it. On the host each way is a dense array of 16-byte cells
 * {key, ref}: an empty cell holds the reserved key `empty_key`, and
 * `ref` names the entry's payload in one chunked pool owned by the
 * table. A probe reads one cell per way and the payload only on a hit;
 * a kick, a resize migration or a homeless park moves a key and a
 * ref, never the payload, so a payload stays at one host address
 * from insert to erase.
 */

#ifndef NECPT_PT_CUCKOO_HH
#define NECPT_PT_CUCKOO_HH

#include <array>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#if __has_include(<sys/mman.h>)
#include <sys/mman.h>
#endif

#include "common/bitops.hh"
#include "common/fault.hh"
#include "common/function_ref.hh"
#include "common/hash.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "common/trace_events.hh"
#include "pt/pte.hh"

namespace necpt
{

namespace detail
{

struct FreeHost
{
    void operator()(void *p) const { std::free(p); }
};

/** Uninitialized host storage from allocHost(). */
template <typename T>
using HostPtr = std::unique_ptr<T, FreeHost>;

/**
 * Uninitialized host storage for @p n objects of @p T. A buffer of
 * 2MB or more is 2MB-aligned and advised for transparent huge pages:
 * the cuckoo cell arrays and payload chunks are read at random, and
 * on 4KB pages nearly every cold probe would also miss the TLB.
 */
template <typename T>
HostPtr<T>
allocHost(std::size_t n)
{
    static_assert(std::is_trivially_destructible_v<T>);
    constexpr std::size_t huge = std::size_t{2} << 20;
    std::size_t bytes = n * sizeof(T);
    void *p = nullptr;
    if (bytes < huge) {
        p = std::malloc(bytes);
    } else {
        bytes = (bytes + huge - 1) & ~(huge - 1);
        p = std::aligned_alloc(huge, bytes);
#ifdef MADV_HUGEPAGE
        if (p)
            madvise(p, bytes, MADV_HUGEPAGE);
#endif
    }
    if (!p)
        throw std::bad_alloc();
    return HostPtr<T>(static_cast<T *>(p));
}

} // namespace detail

/** Configuration of one elastic cuckoo table. */
struct CuckooConfig
{
    int ways = 3;                        //!< the paper's d
    std::uint64_t initial_slots = 16384; //!< slots per way (Table 2)
    std::uint64_t slot_bytes = 64;       //!< one cache line per slot
    double resize_threshold = 0.6;       //!< load factor triggering upsize
    int migrate_per_insert = 8;          //!< gradual-migration rate
    int max_kicks = 32;                  //!< cuckoo path bound
    std::uint64_t seed = 0xEC97;         //!< hash family seed
};

/**
 * @tparam ValueT payload stored per key (e.g. a block of 8 PTEs).
 */
template <typename ValueT>
class ElasticCuckooTable
{
  public:
    /** The key an empty cell holds; never a valid key to insert. */
    static constexpr std::uint64_t empty_key = ~0ULL;

    /** A successful find: the payload plus its hardware location. The
     *  payload pointer stays valid until its key is erased: later
     *  inserts, kicks and resizes move the key, not the payload. */
    struct FindResult
    {
        ValueT *value = nullptr;
        int way = -1;
        Addr slot_addr = invalid_addr;
        bool in_old_generation = false;

        explicit operator bool() const { return value != nullptr; }
    };

    /** Invoked whenever a key settles at a (possibly new) location,
     *  with the payload now resident there. Non-owning: the registered
     *  callee must outlive the table's use (the ECPT stores its
     *  per-size notifier functors as members). */
    using MoveCallback =
        FunctionRef<void(std::uint64_t key, int way, const ValueT &value)>;

    ElasticCuckooTable(RegionAllocator &allocator,
                       const CuckooConfig &config)
        : alloc(allocator), cfg(config), rng(config.seed ^ 0xC0C0)
    {
        NECPT_ASSERT(cfg.ways >= 2 && cfg.ways <= HashFamily::max_ways);
        std::uint64_t sm = cfg.seed;
        for (int w = 0; w < cfg.ways; ++w)
            hashes[w] = HashFunction(splitmix64(sm));
        live = makeGeneration(cfg.initial_slots);
    }

    ~ElasticCuckooTable()
    {
        releaseGeneration(live);
        if (old)
            releaseGeneration(*old);
    }

    ElasticCuckooTable(const ElasticCuckooTable &) = delete;
    ElasticCuckooTable &operator=(const ElasticCuckooTable &) = delete;

    /** Register the OS callback for way updates (CWT maintenance). */
    void setMoveCallback(MoveCallback cb) { on_move = cb; }

    /** Arm (or disarm, with nullptr) fault injection: forced kick
     *  exhaustion and forced mid-probe resize windows. */
    void setFaultPlan(FaultPlan *plan) { fault_plan = plan; }

    /** Attach the event tracer: kick chains and resize windows are
     *  recorded (aggregated per insert) at the tracer's ambient clock.
     *  Null detaches (the default). */
    void setTracer(TraceBuffer *t) { tracer = t; }

    /**
     * Insert or update @p key in place: @p edit(value) modifies the
     * resident payload, or a default-constructed one when @p key is
     * new. One hash pass serves both the lookup and the placement.
     * The side effects run in a fixed order: the fault plan's resize
     * window, placement (displaced entries are cuckoo-rehashed and
     * every settled key is reported to the move callback), one
     * migrateSome() step, the load-factor resize check, the trace
     * event.
     * @return the way holding @p key after all of that, following any
     *         move migrateSome() made during this same call.
     */
    template <typename Edit>
    int
    update(std::uint64_t key, Edit &&edit)
    {
        NECPT_ASSERT(key != empty_key);
        // Injected resize window: open a fresh two-generation phase so
        // this insert (and the probes that follow) run mid-resize.
        if (fault_plan && !old && fault_plan->forceResizeWindow()) {
            ++injected_resizes;
            startResize();
        }
        const std::uint64_t kicks_before = rehash_moves;
        std::uint64_t raw[HashFamily::max_ways];
        rawHashes(key, raw);
        // Every later move of the key (displacement, migration) comes
        // back through notifyMove, which keeps settled_way current.
        settling_key = key;
        FindResult hit = findIn(live, key, false, raw);
        if (!hit && old)
            hit = findIn(*old, key, true, raw);
        if (hit) {
            edit(*hit.value);
            settled_way = hit.way;
        } else {
            const std::uint32_t ref = pool.alloc();
            edit(pool.at(ref));
            if (!tryPlace(key, ref, raw)) {
                recoverFailedPlace();
                settle();
            }
        }
        migrateSome();
        if (!old && loadFactor() > cfg.resize_threshold)
            startResize();
        // One aggregated event per displacing insert (never one per
        // kick: prefault storms would flush the whole ring).
        if (tracer && rehash_moves > kicks_before)
            tracer->instant(
                "cuckoo.kicks", TraceCat::Cuckoo, trace_pt_tid,
                tracer->now(),
                {{"kicks", static_cast<std::int64_t>(rehash_moves
                                                     - kicks_before)},
                 {"key", static_cast<std::int64_t>(key)}});
        return settled_way;
    }

    /** Insert or overwrite @p key with @p value (see update()). */
    int
    insert(std::uint64_t key, const ValueT &value)
    {
        return update(key, [&](ValueT &v) { v = value; });
    }

    /** Look up @p key. */
    FindResult
    find(std::uint64_t key)
    {
        // Empty tables answer without hashing: a multi-size lookup
        // probes every page-size table, and for most workloads all but
        // one of them stays empty for the whole run. The reserved key
        // is never resident (it would match every empty cell).
        if (key == empty_key
            || (live.used == 0 && (!old || old->used == 0)))
            return {};
        // One hash pass covers both generations: the raw 64-bit values
        // are generation-independent, only the modulo differs.
        std::uint64_t raw[HashFamily::max_ways];
        rawHashes(key, raw);
        if (FindResult r = findIn(live, key, false, raw))
            return r;
        if (old) {
            if (FindResult r = findIn(*old, key, true, raw))
                return r;
        }
        return {};
    }

    /**
     * Remove @p key. Covers both generations *and* the homeless list
     * (an entry can be parked there mid-settle under injected kick
     * exhaustion), and afterwards re-runs settle() so any parked entry
     * can claim the slot the deletion just freed — the homeless-slot
     * repair half of the delete path. @return true when it was present.
     */
    bool
    erase(std::uint64_t key)
    {
        if (key == empty_key)
            return false;
        std::uint64_t raw[HashFamily::max_ways];
        rawHashes(key, raw);
        bool hit = eraseIn(live, key, raw);
        if (!hit && old)
            hit = eraseIn(*old, key, raw);
        for (auto it = homeless.begin(); it != homeless.end(); ++it) {
            if (it->first == key) {
                pool.release(it->second);
                homeless.erase(it);
                hit = true;
                break;
            }
        }
        if (hit) {
            ++erase_count;
            settle();
        }
        return hit;
    }

    /**
     * Hardware probe plan: the slot addresses a walker must fetch to
     * find @p key, restricted to ways in @p way_mask (bit w = way w).
     * During a resize both generations are probed.
     */
    void
    probeAddrs(std::uint64_t key, unsigned way_mask,
               std::vector<Addr> &out) const
    {
        std::uint64_t raw[HashFamily::max_ways];
        rawHashes(key, raw);
        for (int w = 0; w < cfg.ways; ++w) {
            if (!(way_mask & (1u << w)))
                continue;
            out.push_back(slotAddr(live, w, reduce(live, raw[w])));
            if (old)
                out.push_back(slotAddr(*old, w, reduce(*old, raw[w])));
        }
    }

    /** Which way currently holds @p key (-1 when absent). */
    int
    wayOf(std::uint64_t key) const
    {
        auto *self = const_cast<ElasticCuckooTable *>(this);
        FindResult r = self->find(key);
        return r ? r.way : -1;
    }

    /// @name Capacity and accounting
    /// @{
    std::uint64_t size() const { return live.used + (old ? old->used : 0); }

    double
    loadFactor() const
    {
        const auto capacity = static_cast<double>(live.slots * cfg.ways);
        return static_cast<double>(live.used) / capacity;
    }

    bool resizing() const { return old.has_value(); }

    std::uint64_t
    structureBytes() const
    {
        std::uint64_t bytes = live.slots * cfg.ways * cfg.slot_bytes;
        if (old)
            bytes += old->slots * cfg.ways * cfg.slot_bytes;
        return bytes;
    }

    /** Host bytes behind the table: the cell arrays of both
     *  generations plus the payload pool's chunks. structureBytes() is
     *  the simulated footprint; this is what the model costs. */
    std::uint64_t
    hostBytes() const
    {
        std::uint64_t cells = live.slots;
        if (old)
            cells += old->slots;
        return cells * cfg.ways * sizeof(Cell) + pool.bytes();
    }

    /** Cuckoo displacements observed (Section 4.4 staleness driver). */
    std::uint64_t rehashMoves() const { return rehash_moves; }

    /** Successful deletions (churn / coherence accounting). */
    std::uint64_t eraseCount() const { return erase_count; }

    /** Entries migrated by elastic resizes. */
    std::uint64_t resizeMoves() const { return resize_moves; }

    /** Completed resize starts. */
    std::uint64_t resizeCount() const { return resizes; }

    /** Injected-fault accounting (tests / audits). */
    std::uint64_t injectedKickFailures() const { return injected_kicks; }
    std::uint64_t injectedResizes() const { return injected_resizes; }

    /** Entries currently parked off-table. Zero between inserts: the
     *  settle() loop always re-places (growing as needed) before
     *  insert() returns — the homeless-entry bound the fault tests
     *  assert under forced kick exhaustion. */
    std::size_t homelessCount() const { return homeless.size(); }

    std::uint64_t slotsPerWay() const { return live.slots; }
    int numWays() const { return cfg.ways; }
    std::uint64_t slotBytes() const { return cfg.slot_bytes; }

    /** Base address of live way @p w (tests / debugging). */
    Addr wayBase(int w) const { return live.base[w]; }
    /// @}

    /** Force any in-flight resize to complete (used by tests). */
    void
    finishResize()
    {
        while (old)
            migrateSome();
    }

    /** Visit every resident entry: fn(key, value, way, in_old_gen).
     *  Used by invariant audits to cross-check CWT consistency. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        forEachIn(live, false, fn);
        if (old)
            forEachIn(*old, true, fn);
    }

  private:
    /** One host cell: a key and its payload's pool ref (16 bytes). */
    struct Cell
    {
        std::uint64_t key = empty_key;
        std::uint32_t ref = 0;

        bool empty() const { return key == empty_key; }
    };
    static_assert(sizeof(Cell) == 16);

    /**
     * Payloads addressed by a 32-bit ref, in chunks that double in size
     * (chunk k holds `first_chunk << k`), so a small table keeps a small
     * pool and a large one few chunks. Chunks are never moved or freed
     * before the table, so a payload's host address is stable. A chunk's
     * payloads are constructed as their refs are first handed out, so
     * host pages are touched as the pool fills; erased refs go on a
     * free list and come back value-initialized.
     */
    class PayloadPool
    {
      public:
        std::uint32_t
        alloc()
        {
            if (!free_refs.empty()) {
                const std::uint32_t ref = free_refs.back();
                free_refs.pop_back();
                at(ref) = ValueT{};
                return ref;
            }
            NECPT_ASSERT(next < ~std::uint32_t{0});
            const Place p = place(next);
            if (p.chunk == chunks.size())
                chunks.push_back(
                    detail::allocHost<ValueT>(first_chunk << p.chunk));
            new (chunks[p.chunk].get() + p.offset) ValueT{};
            return next++;
        }

        void release(std::uint32_t ref) { free_refs.push_back(ref); }

        ValueT &
        at(std::uint32_t ref)
        {
            const Place p = place(ref);
            return chunks[p.chunk].get()[p.offset];
        }
        const ValueT &
        at(std::uint32_t ref) const
        {
            const Place p = place(ref);
            return chunks[p.chunk].get()[p.offset];
        }

        /** Bytes of every chunk allocated so far. */
        std::uint64_t
        bytes() const
        {
            return ((first_chunk << chunks.size()) - first_chunk)
                   * sizeof(ValueT);
        }

      private:
        static constexpr unsigned first_shift = 10;
        static constexpr std::uint64_t first_chunk = 1u << first_shift;

        struct Place
        {
            std::size_t chunk;
            std::uint64_t offset;
        };

        /** Chunks 0..k-1 hold `first_chunk * (2^k - 1)` payloads, so
         *  `ref + first_chunk` has its top bit at `first_shift + k`
         *  in chunk k, and the bits below it are the offset. */
        static Place
        place(std::uint32_t ref)
        {
            const std::uint64_t x = std::uint64_t{ref} + first_chunk;
            const int top = std::bit_width(x) - 1;
            return {static_cast<std::size_t>(top - first_shift),
                    x - (std::uint64_t{1} << top)};
        }

        std::vector<detail::HostPtr<ValueT>> chunks;
        std::vector<std::uint32_t> free_refs;
        std::uint32_t next = 0;
    };

    struct Generation
    {
        std::uint64_t slots = 0;
        std::uint64_t used = 0;
        std::uint64_t slot_mask = 0; //!< slots-1 when power of 2, else 0
        /** Per-way cell arrays, slot index order. */
        std::array<detail::HostPtr<Cell>, HashFamily::max_ways> cells;

        Cell &cell(int way, std::uint64_t idx) const
        {
            return cells[way].get()[idx];
        }
        std::vector<Addr> base;         //!< per-way region base
        std::uint64_t migrate_scan = 0; //!< way-major scan index
    };

    Generation
    makeGeneration(std::uint64_t slots)
    {
        Generation gen;
        gen.slots = slots;
        gen.slot_mask = isPowerOf2(slots) ? slots - 1 : 0;
        for (int w = 0; w < cfg.ways; ++w) {
            gen.cells[w] = detail::allocHost<Cell>(slots);
            std::uninitialized_fill_n(gen.cells[w].get(), slots, Cell{});
            gen.base.push_back(alloc.allocRegion(slots * cfg.slot_bytes));
        }
        return gen;
    }

    void
    releaseGeneration(Generation &gen)
    {
        for (std::size_t w = 0; w < gen.base.size(); ++w) {
            alloc.freeRegion(gen.base[w], gen.slots * cfg.slot_bytes);
            gen.cells[w].reset();
        }
        gen.base.clear();
    }

    /** forEach() over one generation: way-major, slot index order. */
    template <typename Fn>
    void
    forEachIn(const Generation &gen, bool is_old, Fn &fn) const
    {
        for (int w = 0; w < cfg.ways; ++w)
            for (std::uint64_t i = 0; i < gen.slots; ++i)
                if (const Cell &cell = gen.cell(w, i); !cell.empty())
                    fn(cell.key, pool.at(cell.ref), w, is_old);
    }

    /** Compute all ways' raw hashes of @p key in one pass — the d
     *  premixes feed the four-lane CRC kernel (the hardware hashes all
     *  ways in parallel; the model now does too). */
    void
    rawHashes(std::uint64_t key, std::uint64_t *out) const
    {
        const int d = cfg.ways;
        int w = 0;
        for (; w + 4 <= d; w += 4) {
            std::uint64_t mixed[4];
            for (int l = 0; l < 4; ++l)
                mixed[l] = ~__builtin_bswap64(hashes[w + l].premix(key));
            simd::crc64x4(detail::crc64_tables.t, mixed, out + w);
        }
        if (int rem = d - w) {
            std::uint64_t mixed[4], folded[4];
            for (int l = 0; l < 4; ++l)
                mixed[l] = ~__builtin_bswap64(
                    hashes[w + (l < rem ? l : rem - 1)].premix(key));
            simd::crc64x4(detail::crc64_tables.t, mixed, folded);
            for (int l = 0; l < rem; ++l)
                out[w + l] = folded[l];
        }
    }

    /** Reduce a raw hash to a slot index. The default slot counts are
     *  powers of 2 (16384, doubling), where masking and the modulo the
     *  old code computed give identical indices. */
    static std::uint64_t
    reduce(const Generation &gen, std::uint64_t raw)
    {
        return gen.slot_mask ? (raw & gen.slot_mask) : (raw % gen.slots);
    }

    Addr
    slotAddr(const Generation &gen, int way, std::uint64_t idx) const
    {
        return gen.base[way] + idx * cfg.slot_bytes;
    }

    FindResult
    findIn(Generation &gen, std::uint64_t key, bool is_old,
           const std::uint64_t *raw)
    {
        for (int w = 0; w < cfg.ways; ++w) {
            const auto idx = reduce(gen, raw[w]);
            const Cell &cell = gen.cell(w, idx);
            if (cell.key == key)
                return {&pool.at(cell.ref), w, slotAddr(gen, w, idx),
                        is_old};
        }
        return {};
    }

    bool
    eraseIn(Generation &gen, std::uint64_t key, const std::uint64_t *raw)
    {
        for (int w = 0; w < cfg.ways; ++w) {
            const auto idx = reduce(gen, raw[w]);
            Cell &cell = gen.cell(w, idx);
            if (cell.key == key) {
                pool.release(cell.ref);
                cell.key = empty_key;
                --gen.used;
                return true;
            }
        }
        return false;
    }

    /**
     * Cuckoo placement of @p key and its payload @p ref into the live
     * generation, displacing entries along a bounded random-walk path.
     * On failure the carried entry is parked on the homeless list and
     * false is returned. @p key_raw, when given, holds @p key's hashes
     * (the caller already probed).
     */
    bool
    tryPlace(std::uint64_t key, std::uint32_t ref,
             const std::uint64_t *key_raw = nullptr)
    {
        // Injected kick exhaustion: park the entry as if the bounded
        // random walk ran out. The caller must NOT double the table
        // for it (a probabilistic site would compound doublings into
        // unbounded growth); the plan never fires twice in a row, so
        // the immediate retry placement is genuine.
        if (fault_plan && fault_plan->forceKickExhaustion()) {
            ++injected_kicks;
            kick_injected = true;
            homeless.emplace_back(key, ref);
            return false;
        }
        std::uint64_t cur_key = key;
        std::uint32_t cur_ref = ref;
        int last_way = -1;
        std::uint64_t buf[HashFamily::max_ways];
        for (int kick = 0; kick <= cfg.max_kicks; ++kick) {
            const std::uint64_t *raw = buf;
            if (kick == 0 && key_raw)
                raw = key_raw;
            else
                rawHashes(cur_key, buf);
            for (int w = 0; w < cfg.ways; ++w) {
                const auto idx = reduce(live, raw[w]);
                Cell &cell = live.cell(w, idx);
                if (cell.empty()) {
                    cell = {cur_key, cur_ref};
                    ++live.used;
                    notifyMove(cur_key, w, pool.at(cur_ref), kick > 0);
                    return true;
                }
            }
            int w;
            do {
                w = static_cast<int>(rng.below(cfg.ways));
            } while (w == last_way && cfg.ways > 1);
            const auto idx = reduce(live, raw[w]);
            Cell &cell = live.cell(w, idx);
            std::swap(cur_key, cell.key);
            std::swap(cur_ref, cell.ref);
            notifyMove(cell.key, w, pool.at(cell.ref), true);
            last_way = w;
        }
        homeless.emplace_back(cur_key, cur_ref);
        return false;
    }

    /** Place every parked entry, growing the table as needed. */
    void
    settle()
    {
        while (!homeless.empty()) {
            const auto [key, ref] = homeless.back();
            homeless.pop_back();
            if (!tryPlace(key, ref))
                recoverFailedPlace();
        }
    }

    /** A tryPlace() failed and parked an entry on the homeless list;
     *  make room before the entry is retried. */
    void
    recoverFailedPlace()
    {
        if (kick_injected) {
            // Injected exhaustion: the entry is parked, but growing
            // for it would let the fault rate compound into runaway
            // doubling. Retry instead — the next placement is
            // guaranteed genuine.
            kick_injected = false;
            return;
        }
        // Genuine exhaustion: grow so the next round has double the
        // space. Termination: capacity doubles every failure while
        // |homeless| is bounded.
        startResize();
    }

    void
    notifyMove(std::uint64_t key, int way, const ValueT &value,
               bool was_displacement)
    {
        if (was_displacement)
            ++rehash_moves;
        if (key == settling_key)
            settled_way = way;
        if (on_move)
            on_move(key, way, value);
    }

    /**
     * Begin an elastic upsize: the live generation retires and a 2x
     * generation becomes live. If a previous resize is still in flight,
     * its remaining entries are drained to the homeless list first (a
     * rare stop-the-world corner; the common path is gradual).
     */
    void
    startResize()
    {
        if (old) {
            for (int w = 0; w < cfg.ways; ++w) {
                for (std::uint64_t i = 0; i < old->slots; ++i) {
                    Cell &cell = old->cell(w, i);
                    if (!cell.empty()) {
                        homeless.emplace_back(cell.key, cell.ref);
                        cell.key = empty_key;
                        --old->used;
                    }
                }
            }
            releaseGeneration(*old);
            old.reset();
        }
        Generation bigger = makeGeneration(live.slots * 2);
        old.emplace(std::move(live));
        live = std::move(bigger);
        ++resizes;
        if (tracer)
            tracer->instant(
                "cuckoo.resize.begin", TraceCat::Cuckoo, trace_pt_tid,
                tracer->now(),
                {{"live_slots", static_cast<std::int64_t>(live.slots)},
                 {"resizes", static_cast<std::int64_t>(resizes)}});
    }

    /** Move a few entries from the retiring generation (gradual). */
    void
    migrateSome()
    {
        if (!old)
            return;
        int moved = 0;
        const std::uint64_t total = old->slots * cfg.ways;
        while (old->migrate_scan < total
               && moved < cfg.migrate_per_insert) {
            const auto way = static_cast<int>(old->migrate_scan / old->slots);
            const auto idx = old->migrate_scan % old->slots;
            ++old->migrate_scan;
            Cell &cell = old->cell(way, idx);
            if (!cell.empty()) {
                const Cell moving = cell;
                cell.key = empty_key;
                --old->used;
                ++resize_moves;
                ++moved;
                if (!tryPlace(moving.key, moving.ref)) {
                    if (kick_injected) {
                        // Injected exhaustion mid-migration: re-place
                        // without growing (see settle()).
                        kick_injected = false;
                        settle();
                        return;
                    }
                    // Parked; grow and settle synchronously. startResize
                    // drains what is left of the current old generation,
                    // so the loop below terminates via the reset old.
                    startResize();
                    settle();
                    return;
                }
            }
        }
        if (old->migrate_scan >= total) {
            NECPT_ASSERT(old->used == 0);
            releaseGeneration(*old);
            old.reset();
            if (tracer)
                tracer->instant(
                    "cuckoo.resize.end", TraceCat::Cuckoo, trace_pt_tid,
                    tracer->now(),
                    {{"moves",
                      static_cast<std::int64_t>(resize_moves)}});
        }
    }

    RegionAllocator &alloc;
    CuckooConfig cfg;
    Rng rng;
    std::array<HashFunction, HashFamily::max_ways> hashes;
    Generation live;
    std::optional<Generation> old;
    MoveCallback on_move;
    PayloadPool pool;
    /** Parked {key, payload ref} pairs (see settle()). */
    std::vector<std::pair<std::uint64_t, std::uint32_t>> homeless;

    FaultPlan *fault_plan = nullptr;
    TraceBuffer *tracer = nullptr;
    /** Set by tryPlace when its failure was injected, so the caller
     *  retries instead of doubling the table. */
    bool kick_injected = false;
    /** The key update() is inserting and the way it last settled in
     *  (stale between calls; only update() reads it). */
    std::uint64_t settling_key = 0;
    int settled_way = -1;

    std::uint64_t rehash_moves = 0;
    std::uint64_t resize_moves = 0;
    std::uint64_t resizes = 0;
    std::uint64_t erase_count = 0;
    std::uint64_t injected_kicks = 0;
    std::uint64_t injected_resizes = 0;
};

} // namespace necpt

#endif // NECPT_PT_CUCKOO_HH
