#include "os/system.hh"

#include <algorithm>

#include "common/error.hh"
#include "common/fault.hh"
#include "common/log.hh"

namespace necpt
{

namespace
{

/** gVA -> hPA from the guest translation @p g of @p gva and the host
 *  translation @p h of its gPA, at the effective page size
 *  min(guest, host). */
Translation
compose(Addr gva, const Translation &g, const Translation &h)
{
    const PageSize eff = static_cast<int>(g.size) < static_cast<int>(h.size)
                             ? g.size : h.size;
    const Addr hpa = h.apply(g.apply(gva));
    return {hpa - pageOffset(gva, eff), eff, true};
}

} // namespace

NestedSystem::NestedSystem(const SystemConfig &config)
    : cfg(config), mmap_cursor(config.mmap_base)
{
    host_pool =
        std::make_unique<PhysMemPool>(0, cfg.host_phys_bytes, "host-phys");
    if (cfg.virtualized)
        guest_pool = std::make_unique<PhysMemPool>(0, cfg.guest_phys_bytes,
                                                   "guest-phys");

    // Guest page tables live in guest-physical space (or directly in
    // host-physical space when native). Their regions are registered so
    // the hypervisor backs them with 4KB pages (Section 4.3).
    PhysMemPool &guest_space = cfg.virtualized ? *guest_pool : *host_pool;
    guest_pt_alloc =
        std::make_unique<PtRegionAllocator>(guest_space, pt_registry);
    guest_node_alloc =
        std::make_unique<ScatteredPtAllocator>(guest_space, pt_registry);

    switch (cfg.guest_kind) {
      case PtKind::Radix:
        // Radix nodes come from the general page allocator, scattered
        // among data frames — as real kernels allocate them.
        guest_pt = std::make_unique<RadixPageTable>(*guest_node_alloc,
                                                    cfg.radix_levels);
        break;
      case PtKind::Ecpt: {
        EcptConfig ecfg = cfg.guest_ecpt;
        ecfg.has_pte_cwt = false; // the guest never keeps a PTE CWT
        guest_pt = std::make_unique<EcptPageTable>(*guest_pt_alloc, ecfg);
        break;
      }
      case PtKind::Flat:
        throw ConfigError("flat page tables are host-side only");
      case PtKind::Hpt: {
        // Classic single HPT (Section 2.2): one table, 4KB pages only,
        // sized up front to keep the load factor moderate.
        std::uint64_t slots = 2;
        while (slots < (cfg.guest_phys_bytes >> 12))
            slots <<= 1;
        guest_pt = std::make_unique<HashedPageTable>(*guest_pt_alloc,
                                                     slots, 0x6857);
        break;
      }
    }

    if (cfg.virtualized) {
        host_node_alloc = std::make_unique<ScatteredPtAllocator>(
            *host_pool, host_pt_registry);
        switch (cfg.host_kind) {
          case PtKind::Radix:
            host_pt = std::make_unique<RadixPageTable>(*host_node_alloc,
                                                       cfg.radix_levels);
            break;
          case PtKind::Ecpt:
            host_pt =
                std::make_unique<EcptPageTable>(*host_pool, cfg.host_ecpt);
            break;
          case PtKind::Flat:
            host_pt = std::make_unique<FlatPageTable>(*host_pool,
                                                      cfg.guest_phys_bytes);
            break;
          case PtKind::Hpt: {
            std::uint64_t slots = 2;
            while (slots < (cfg.guest_phys_bytes >> 12) * 2)
                slots <<= 1;
            host_pt = std::make_unique<HashedPageTable>(*host_pool, slots,
                                                        0x7857);
            break;
          }
        }
    }

    memo_on = cfg.guest_kind != PtKind::Hpt
              && !(cfg.virtualized && cfg.host_kind == PtKind::Hpt);

    // Arm fault injection only after the machine is built: start-up
    // allocations (initial ways, CWT chunks) are not interesting
    // corner cases — pressure during operation is.
    if (cfg.fault_plan) {
        host_pool->setFaultPlan(cfg.fault_plan);
        if (guest_pool)
            guest_pool->setFaultPlan(cfg.fault_plan);
        if (EcptPageTable *e = guestEcpt())
            e->setFaultPlan(cfg.fault_plan);
        if (EcptPageTable *e = hostEcpt())
            e->setFaultPlan(cfg.fault_plan);
    }
}

void
NestedSystem::auditInvariants() const
{
    if (const EcptPageTable *e = guestEcpt())
        e->auditCwtConsistency("guest");
    if (const EcptPageTable *e = hostEcpt())
        e->auditCwtConsistency("host");
    for (const PhysMemPool *pool : {host_pool.get(), guest_pool.get()}) {
        if (pool && pool->usedBytes() > pool->capacityBytes())
            throw InvariantViolation(strfmt(
                "pool '%s': accounting says %llu bytes used of %llu "
                "capacity", pool->name().c_str(),
                (unsigned long long)pool->usedBytes(),
                (unsigned long long)pool->capacityBytes()));
    }
}

NestedSystem::~NestedSystem() = default;

Addr
NestedSystem::mmapRegion(std::uint64_t bytes, bool thp_eligible)
{
    const auto align = thp_eligible ? pageBytes(PageSize::Page2M)
                                    : pageBytes(PageSize::Page4K);
    const Addr base = alignUp(mmap_cursor, align);
    mmap_cursor = base + alignUp(bytes, align);
    vmas.push_back({base, alignUp(bytes, align), thp_eligible});
    return base;
}

Addr
NestedSystem::mmapRegion1G(std::uint64_t bytes)
{
    const auto align = pageBytes(PageSize::Page1G);
    const Addr base = alignUp(mmap_cursor, align);
    mmap_cursor = base + alignUp(bytes, align);
    vmas.push_back({base, alignUp(bytes, align), false, true});
    return base;
}

NestedSystem::Vma *
NestedSystem::vmaOf(Addr gva)
{
    for (Vma &vma : vmas)
        if (gva >= vma.base && gva < vma.base + vma.bytes)
            return &vma;
    return nullptr;
}

bool
NestedSystem::blockCovered(std::uint64_t block, double coverage,
                           std::uint64_t salt) const
{
    // Deterministic per-chunk hash draw (stride patterns would alias
    // with strided workloads).
    std::uint64_t sm = block ^ (cfg.seed * 0x9E3779B97F4A7C15ULL) ^ salt;
    const auto draw = splitmix64(sm);
    return static_cast<double>(draw >> 11) * 0x1.0p-53 < coverage;
}

void
NestedSystem::guestMap(Addr gva, Addr gpa, PageSize size)
{
    ++mutation_stamp;
    guest_pt->map(gva, gpa, size);
}

void
NestedSystem::hostMap(Addr gpa, Addr hpa, PageSize size)
{
    ++mutation_stamp;
    host_pt->map(gpa, hpa, size);
    host_mapped_end = std::max(host_mapped_end, gpa + pageBytes(size));
}

void
NestedSystem::guestMapRun(Addr gva, const Addr *gpas, std::size_t n,
                          PageSize size)
{
    mutation_stamp += n;
    guest_pt->mapRun(gva, gpas, n, size);
}

void
NestedSystem::hostMapRun(Addr gpa, const Addr *hpas, std::size_t n,
                         PageSize size)
{
    mutation_stamp += n;
    host_pt->mapRun(gpa, hpas, n, size);
    host_mapped_end =
        std::max(host_mapped_end, gpa + n * pageBytes(size));
}

Translation
NestedSystem::guestFaultIn(Addr gva, Vma &vma)
{
    PhysMemPool &frames = cfg.virtualized ? *guest_pool : *host_pool;
    ++guest_faults;
    vma.touched = true;

    // Explicit 1GB (hugetlbfs-style) regions bypass the THP policy.
    PageSize size = PageSize::Page1G;
    if (!vma.use_1g) {
        // THP feasibility is decided per contiguous 64MB chunk: real
        // allocators succeed or fail in zones rather than salt-and-
        // pepper at 2MB granularity, and 64MB keeps the coverage
        // fraction meaningful even for sub-GB arrays.
        const auto region = gva >> 26;
        bool use_thp = false;
        if (cfg.guest_thp && vma.thp_eligible) {
            auto it = guest_block_thp.find(region);
            if (it == guest_block_thp.end()) {
                use_thp =
                    blockCovered(region, cfg.guest_thp_coverage, 0x6E57);
                guest_block_thp.emplace(region, use_thp);
            } else {
                use_thp = it->second;
            }
        }
        size = use_thp ? PageSize::Page2M : PageSize::Page4K;
    }

    const Addr frame = frames.allocFrame(size);
    guestMap(pageBase(gva, size), frame, size);
    return {frame, size, true};
}

Translation
NestedSystem::hostFaultIn(Addr gpa)
{
    NECPT_ASSERT(cfg.virtualized);
    ++host_faults;

    // Page-table regions are always backed by 4KB pages (Section 4.3).
    if (isPtRegion(gpa)) {
        const Addr frame = host_pool->allocFrame(PageSize::Page4K);
        hostMap(pageBase(gpa, PageSize::Page4K), frame, PageSize::Page4K);
        noteHost4kBlock(gpa);
        return {frame, PageSize::Page4K, true};
    }

    // Per-64MB-chunk decision, as on the guest side: coarse enough to
    // keep regions size-uniform for the CWT summaries, fine enough
    // that the configured coverage leaves a real 4KB residue (the
    // Figure-12 structure).
    const auto region = gpa >> 26;
    bool use_thp = false;
    if (cfg.host_thp) {
        auto it = host_block_thp.find(region);
        if (it == host_block_thp.end()) {
            use_thp =
                blockCovered(region, cfg.host_thp_coverage, 0x5A17);
            host_block_thp.emplace(region, use_thp);
        } else {
            use_thp = it->second;
        }
    }

    // A 2MB mapping may not overlap an existing 4KB one (a scattered
    // page-table node faulted in earlier).
    if (use_thp
        && host_blocks_with_4k.count(gpa >> pageShift(PageSize::Page2M)))
        use_thp = false;

    if (use_thp) {
        const Addr frame = host_pool->allocFrame(PageSize::Page2M);
        hostMap(pageBase(gpa, PageSize::Page2M), frame, PageSize::Page2M);
        return {frame, PageSize::Page2M, true};
    }
    const Addr frame = host_pool->allocFrame(PageSize::Page4K);
    hostMap(pageBase(gpa, PageSize::Page4K), frame, PageSize::Page4K);
    noteHost4kBlock(gpa);
    return {frame, PageSize::Page4K, true};
}

void
NestedSystem::noteHost4kBlock(Addr gpa)
{
    const std::uint64_t block = gpa >> pageShift(PageSize::Page2M);
    if (block == last_host_4k_block)
        return;
    host_blocks_with_4k.insert(block);
    last_host_4k_block = block;
}

void
NestedSystem::guestUnmap(Addr page, PageSize size)
{
    ++mutation_stamp;
    guest_pt->unmap(page, size);
}

void
NestedSystem::hostUnmap(Addr page, PageSize size)
{
    ++mutation_stamp;
    host_pt->unmap(page, size);
}

NestedSystem::UnmapInfo
NestedSystem::guestUnmapPage(Addr gva)
{
    const Translation g = guestTranslate(gva);
    if (!g.valid)
        return {};
    const Addr page = pageBase(gva, g.size);
    guestUnmap(page, g.size);
    PhysMemPool &frames = cfg.virtualized ? *guest_pool : *host_pool;
    frames.freeFrame(g.pa, g.size);
    return {true, page, g};
}

NestedSystem::UnmapInfo
NestedSystem::balloonOut(Addr gva)
{
    UnmapInfo info = guestUnmapPage(gva);
    if (!info.ok || !cfg.virtualized)
        return info;
    // The balloon driver hands the freed guest-physical frame to the
    // hypervisor, which drops its backing. Release every host page
    // covering the frame; a host huge page may also back neighboring
    // gPAs — they simply refault on next use (no data to preserve in
    // this model).
    Addr gpa = info.old_guest.pa;
    const Addr end = gpa + pageBytes(info.old_guest.size);
    while (gpa < end) {
        const Translation h = host_pt->lookup(gpa);
        if (!h.valid) {
            gpa = pageBase(gpa, PageSize::Page4K)
                + pageBytes(PageSize::Page4K);
            continue;
        }
        const Addr hpage = pageBase(gpa, h.size);
        hostUnmap(hpage, h.size);
        host_pool->freeFrame(h.pa, h.size);
        gpa = hpage + pageBytes(h.size);
    }
    return info;
}

bool
NestedSystem::migratePage(Addr gva)
{
    const Translation g = guestTranslate(gva);
    if (!g.valid)
        return false;
    if (!cfg.virtualized) {
        // Native: move the page to a fresh frame. Allocate before
        // freeing so the allocator cannot hand the same frame back.
        const Addr page = pageBase(gva, g.size);
        const Addr fresh = host_pool->allocFrame(g.size);
        guestUnmap(page, g.size);
        host_pool->freeFrame(g.pa, g.size);
        guestMap(page, fresh, g.size);
        return true;
    }
    // Virtualized: the hypervisor re-backs the guest-physical page —
    // gPA stays, hPA changes, and every cached {gVA, hPA} pair goes
    // stale (the HATRIC motivation case).
    const Addr gpa = g.apply(gva);
    const Translation h = host_pt->lookup(gpa);
    if (!h.valid)
        return false;
    const Addr hpage = pageBase(gpa, h.size);
    const Addr fresh = host_pool->allocFrame(h.size);
    hostUnmap(hpage, h.size);
    host_pool->freeFrame(h.pa, h.size);
    hostMap(hpage, fresh, h.size);
    return true;
}

int
NestedSystem::thpDemote(Addr gva)
{
    const Translation g = guestTranslate(gva);
    if (!g.valid || g.size != PageSize::Page2M)
        return 0;
    const Addr page = pageBase(gva, PageSize::Page2M);
    PhysMemPool &frames = cfg.virtualized ? *guest_pool : *host_pool;
    // The region is fragmented now: future faults here must stay 4KB,
    // or a fresh 2MB mapping could overlap the split pieces.
    guest_block_thp[page >> 26] = false;
    // Copy-based split: the huge frame is released and each 4KB piece
    // re-lands in its own frame (keeps pool accounting size-exact).
    guestUnmap(page, PageSize::Page2M);
    frames.freeFrame(g.pa, PageSize::Page2M);
    const int pieces = static_cast<int>(pageBytes(PageSize::Page2M)
                                        / pageBytes(PageSize::Page4K));
    for (int i = 0; i < pieces; ++i) {
        const Addr va = page
            + static_cast<Addr>(i) * pageBytes(PageSize::Page4K);
        guestMap(va, frames.allocFrame(PageSize::Page4K),
                 PageSize::Page4K);
    }
    return pieces;
}

int
NestedSystem::thpPromote(Addr gva)
{
    const Addr region = pageBase(gva, PageSize::Page2M);
    const int pieces = static_cast<int>(pageBytes(PageSize::Page2M)
                                        / pageBytes(PageSize::Page4K));
    // Collapse only a uniformly 4KB-mapped region (khugepaged's
    // eligibility check).
    for (int i = 0; i < pieces; ++i) {
        const Addr va = region
            + static_cast<Addr>(i) * pageBytes(PageSize::Page4K);
        const Translation t = guestTranslate(va);
        if (!t.valid || t.size != PageSize::Page4K)
            return 0;
    }
    PhysMemPool &frames = cfg.virtualized ? *guest_pool : *host_pool;
    const Addr huge = frames.allocFrame(PageSize::Page2M);
    for (int i = 0; i < pieces; ++i) {
        const Addr va = region
            + static_cast<Addr>(i) * pageBytes(PageSize::Page4K);
        const Translation t = guestTranslate(va);
        guestUnmap(va, PageSize::Page4K);
        frames.freeFrame(t.pa, PageSize::Page4K);
    }
    guestMap(region, huge, PageSize::Page2M);
    return pieces;
}

bool
NestedSystem::writeProtectPage(Addr gva)
{
    const Translation g = guestTranslate(gva);
    if (!g.valid)
        return false;
    // Residency is untouched (the mapping stays valid), but the PTE
    // flag RMW is still a table mutation.
    ++mutation_stamp;
    return guest_pt->writeProtect(pageBase(gva, g.size), g.size);
}

Translation
NestedSystem::faultIn(Addr gva, bool &faulted)
{
    Translation g = guest_pt->lookup(gva);
    if (!g.valid) {
        Vma *vma = vmaOf(gva);
        if (!vma)
            throw ConfigError(strfmt(
                "access to unmapped guest VA 0x%llx",
                static_cast<unsigned long long>(gva)));
        g = guestFaultIn(gva, *vma);
        // HPT lookups are counted (avgProbes), and that statistic
        // includes one lookup of each fresh mapping.
        if (HashedPageTable *hpt = guestHpt())
            hpt->lookup(gva);
        faulted = true;
    }
    if (!cfg.virtualized) {
        memoFill(gva, g, g);
        return g;
    }
    const Addr gpa = g.apply(gva);
    Translation h = host_pt->lookup(gpa);
    if (!h.valid) {
        h = hostFaultIn(gpa);
        faulted = true;
    }
    memoFill(gva, g, compose(gva, g, h));
    return g;
}

bool
NestedSystem::ensureResident(Addr gva)
{
    // A current memo entry holds valid translations at both levels.
    if (memoHit(gva))
        return false;
    bool faulted = false;
    faultIn(gva, faulted);
    return faulted;
}

void
NestedSystem::mapRange(Vma &vma)
{
    const Addr end = vma.base + vma.bytes;
    // Fallback: faultIn page by page, walking by mapped-page stride so
    // a 2MB THP mapping advances the cursor by 2MB. A touched VMA
    // needs its lookups; HPT lookups are counted statistics; a fault
    // plan draws from one stream for both levels, so guest and host
    // steps must stay interleaved page by page.
    if (vma.touched || vma.use_1g || cfg.fault_plan
        || cfg.guest_kind == PtKind::Hpt
        || (cfg.virtualized && cfg.host_kind == PtKind::Hpt)) {
        bool faulted = false;
        for (Addr va = vma.base; va < end;) {
            const Translation g = faultIn(va, faulted);
            // Counted HPT probe statistics include prefault's stride
            // lookup (see faultIn).
            if (HashedPageTable *hpt = guestHpt())
                hpt->lookup(va);
            va += pageBytes(g.size);
        }
        return;
    }

    PhysMemPool &frames = cfg.virtualized ? *guest_pool : *host_pool;
    const EcptPageTable *guest_ecpt = guestEcpt();
    Addr gpas[PteBlock::entries];
    for (Addr va = vma.base; va < end;) {
        // An untouched VMA holds no guest mapping: fault in without
        // the lookup. This page goes in alone; it may place a new
        // block, kick, or start a resize.
        const Translation g = guestFaultIn(va, vma);
        const std::uint64_t bytes = pageBytes(g.size);
        const std::uint64_t block_bytes = bytes * PteBlock::entries;
        const Addr block_end =
            std::min(end, alignDown(va, block_bytes) + block_bytes);
        gpas[0] = g.pa;
        std::size_t n = 1;
        va += bytes;
        // The rest of its block then takes one cuckoo probe, unless a
        // resize is in flight: each of those updates steps the
        // migration, and its kicks must stay between the host steps
        // of the neighboring pages. The pages share the first page's
        // 64MB THP region, so they are all of its size; and frame
        // allocations commute with the table's region allocations.
        if (guest_ecpt && !guest_ecpt->tableOf(g.size).resizing()) {
            const Addr rest = va;
            for (; va < block_end; va += bytes)
                gpas[n++] = frames.allocFrame(g.size);
            if (n > 1) {
                guest_faults += n - 1;
                guestMapRun(rest, gpas + 1, n - 1, g.size);
            }
        }
        if (cfg.virtualized)
            hostBackRun(gpas, n);
    }
}

void
NestedSystem::hostBackRun(const Addr *gpas, std::size_t n)
{
    const EcptPageTable *host_ecpt = hostEcpt();
    constexpr std::uint64_t page_bytes = pageBytes(PageSize::Page4K);
    for (std::size_t i = 0; i < n;) {
        const Addr gpa = gpas[i++];
        // Below the mark the gPA may be backed already (by a host huge
        // page or an earlier fault): look it up as faultIn does.
        if (gpa < host_mapped_end) {
            if (!host_pt->lookup(gpa).valid)
                hostFaultIn(gpa);
            continue;
        }
        if (hostFaultIn(gpa).size != PageSize::Page4K || !host_ecpt
            || host_ecpt->tableOf(PageSize::Page4K).resizing())
            continue;
        // Consecutive gPAs in the rest of this 4KB host block: each
        // would fault to a 4KB page too (its 2MB block now holds one)
        // and noteHost4kBlock would find the block already noted.
        const Addr rest = gpa + page_bytes;
        const Addr block_end =
            alignDown(gpa, page_bytes * PteBlock::entries)
            + page_bytes * PteBlock::entries;
        Addr hpas[PteBlock::entries];
        std::size_t m = 0;
        while (i < n && gpas[i] == rest + m * page_bytes
               && gpas[i] < block_end) {
            hpas[m++] = host_pool->allocFrame(PageSize::Page4K);
            ++i;
        }
        if (m) {
            host_faults += m;
            hostMapRun(rest, hpas, m, PageSize::Page4K);
        }
    }
}

void
NestedSystem::prefaultAll()
{
    for (Vma &vma : vmas)
        mapRange(vma);
    // Let background migration finish: measurement starts from a
    // quiesced steady state (in-flight resizes would otherwise double
    // every probe forever, since migration progresses on inserts).
    quiesce();
}

void
NestedSystem::quiesce()
{
    if (EcptPageTable *e = guestEcpt())
        e->quiesce();
    if (EcptPageTable *e = hostEcpt())
        e->quiesce();
    // Completing in-flight elastic resizes retires the old table
    // generations, which changes the probe-address sets hardware would
    // fetch — a layout mutation even though no mapping changed.
    ++mutation_stamp;
}

const NestedSystem::MemoEntry *
NestedSystem::memoHit(Addr gva) const
{
    if (!memo_on)
        return nullptr;
    const std::uint64_t page = gva >> pageShift(PageSize::Page4K);
    const MemoEntry &m = memo[page % memo_entries];
    return m.page == page && m.stamp == mutation_stamp ? &m : nullptr;
}

void
NestedSystem::memoFill(Addr gva, const Translation &guest,
                       const Translation &full) const
{
    if (!memo_on)
        return;
    const std::uint64_t page = gva >> pageShift(PageSize::Page4K);
    memo[page % memo_entries] = {page, mutation_stamp, guest, full};
}

Translation
NestedSystem::guestTranslate(Addr gva) const
{
    if (const MemoEntry *m = memoHit(gva))
        return m->guest;
    return guest_pt->lookup(gva);
}

Translation
NestedSystem::hostTranslate(Addr gpa)
{
    if (!cfg.virtualized) {
        // Identity: gPA is final.
        return {pageBase(gpa, PageSize::Page4K), PageSize::Page4K, true};
    }
    Translation h = host_pt->lookup(gpa);
    if (!h.valid) {
        hostFaultIn(gpa);
        h = host_pt->lookup(gpa);
        NECPT_ASSERT(h.valid);
    }
    return h;
}

Translation
NestedSystem::peekFullTranslate(Addr gva) const
{
    // Strictly side-effect free (see the header contract): both levels
    // go through the uncounted peek and nothing faults in. The
    // composition mirrors fullTranslate() exactly, so a valid result
    // here is byte-identical to what fullTranslate() would produce
    // (which, with both lookups hitting, is itself mutation-free).
    const Translation g = guest_pt->peek(gva);
    if (!g.valid)
        return {};
    if (!cfg.virtualized)
        return g;
    const Translation h = host_pt->peek(g.apply(gva));
    if (!h.valid)
        return {};
    return compose(gva, g, h);
}

Translation
NestedSystem::fullTranslate(Addr gva)
{
    if (const MemoEntry *m = memoHit(gva))
        return m->full;
    const Translation g = guest_pt->lookup(gva);
    if (!g.valid)
        return {};
    if (!cfg.virtualized) {
        memoFill(gva, g, g);
        return g;
    }
    const Translation h = hostTranslate(g.apply(gva));
    if (!h.valid)
        return {};
    const Translation full = compose(gva, g, h);
    memoFill(gva, g, full);
    return full;
}

std::uint64_t
NestedSystem::guestStructureBytes() const
{
    return guest_pt->structureBytes();
}

std::uint64_t
NestedSystem::hostStructureBytes() const
{
    return host_pt ? host_pt->structureBytes() : 0;
}

std::uint64_t
NestedSystem::guestPteBytes() const
{
    return guest_pt->mappingCount() * pte_bytes;
}

std::uint64_t
NestedSystem::hostPteBytes() const
{
    return host_pt ? host_pt->mappingCount() * pte_bytes : 0;
}

} // namespace necpt
