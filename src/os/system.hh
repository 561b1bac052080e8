/**
 * @file
 * The software side of the machine: guest OS + hypervisor, demand
 * paging, THP policy, and page-table construction for every evaluated
 * organization (Table 1).
 *
 * A NestedSystem owns:
 *  - a guest-physical pool and a host-physical pool,
 *  - the guest page table (radix, ECPT or HPT) built in guest-physical
 *    space,
 *  - the host page table (radix, ECPT, flat or HPT) in host-physical
 *    space,
 *  - the registry of guest-physical ranges holding page tables (which
 *    the hypervisor always backs with 4KB pages — the Section 4.3
 *    contract that lets Step 1 probe only the PTE-hECPT).
 *
 * Both tables are held through the PageTable interface, so faulting,
 * churn and accounting run one path for every organization; walkers
 * reach the organization-specific structure through the typed
 * accessors. In native (non-virtualized) configurations there is no
 * host table: the guest page table is built directly in host-physical
 * space and guest translations are final.
 */

#ifndef NECPT_OS_SYSTEM_HH
#define NECPT_OS_SYSTEM_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hh"
#include "os/phys_pool.hh"
#include "pt/ecpt.hh"
#include "pt/flat.hh"
#include "pt/hashed.hh"
#include "pt/radix.hh"

namespace necpt
{

/** Full system configuration. */
struct SystemConfig
{
    bool virtualized = true;
    PtKind guest_kind = PtKind::Ecpt;
    PtKind host_kind = PtKind::Ecpt;

    /** Transparent Huge Pages (2MB), guest and host sides. */
    bool guest_thp = false;
    bool host_thp = true;
    /**
     * Fraction of 2MB blocks that can actually be backed by a huge
     * page when THP is on — emulating allocator fragmentation
     * (Section 10 notes even 2MB pages are often hard to find).
     */
    double guest_thp_coverage = 0.90;
    double host_thp_coverage = 0.95;

    std::uint64_t guest_phys_bytes = 6ULL << 30;
    std::uint64_t host_phys_bytes = 8ULL << 30;

    /**
     * Radix tree depth: 4 (x86-64) or 5 (LA57/Sunny Cove). With 5
     * levels a nested radix walk grows to up to 35 sequential
     * references (Section 1) while ECPT walks are unaffected.
     */
    int radix_levels = 4;

    EcptConfig guest_ecpt{};
    EcptConfig host_ecpt{};

    Addr mmap_base = 0x10'0000'0000ULL;
    std::uint64_t seed = 0xA11CE;

    /**
     * Optional fault-injection plan, threaded down to the physical
     * pools and ECPT cuckoo tables. Not owned; must outlive the
     * system (the Simulator owns it).
     */
    FaultPlan *fault_plan = nullptr;
};

/**
 * Guest OS + hypervisor + page tables for one VM (or native machine).
 */
class NestedSystem
{
  public:
    explicit NestedSystem(const SystemConfig &config);
    ~NestedSystem();

    NestedSystem(const NestedSystem &) = delete;
    NestedSystem &operator=(const NestedSystem &) = delete;

    /// @name Guest virtual address space
    /// @{
    /** Reserve a VMA of @p bytes; 2MB-aligned when THP-eligible. */
    Addr mmapRegion(std::uint64_t bytes, bool thp_eligible = true);

    /**
     * Reserve a hugetlbfs-style VMA explicitly backed by 1GB pages
     * (1GB-aligned and -granular). Exercises the PUD-level ECPT and
     * the 1GB TLB class end to end.
     */
    Addr mmapRegion1G(std::uint64_t bytes);
    /// @}

    /// @name Demand paging (functional page faults)
    /// @{
    /**
     * Make @p gva resident: installs the guest mapping (THP policy
     * decides 4KB vs 2MB) and the host backing of the touched gPA.
     * @return true when a page fault occurred.
     */
    bool ensureResident(Addr gva);

    /**
     * Monotonic page-table mutation counter: bumped by every map,
     * unmap, and permission change on either level (the guestMap /
     * guestUnmap / hostMap / hostUnmap / writeProtectPage funnels and
     * the guestMapRun / hostMapRun ones, once per page, so
     * churn, ballooning, migration, THP promotion/demotion, and
     * demand faults all count), plus quiesce() — retiring old table
     * generations changes probe-address layouts without touching any
     * mapping. The layout goldens record it as a count of every
     * page-table update a run made. The translation memo (see
     * guestTranslate) is valid only while it is unchanged.
     */
    std::uint64_t mutationStamp() const { return mutation_stamp; }

    /**
     * Fault in every page of every VMA — the steady state the paper
     * measures in (applications materialize their datasets during
     * initialization; Section 8 measures after warm-up). One
     * mapRange() pass per VMA, then quiesce().
     */
    void prefaultAll();

    /**
     * Complete any in-flight elastic resizes (OS background migration
     * finishing during idle time). Called at measurement boundaries.
     */
    void quiesce();
    /// @}

    /// @name Translation churn (coherence subsystem issue side)
    /// The OS/hypervisor mutations behind TLB shootdowns: ballooning,
    /// NUMA migration of the backing, THP promotion/demotion, and
    /// permission downgrades. Each returns what changed so the caller
    /// (src/coherence) can queue the matching invalidations; none of
    /// them touches any MMU cache itself.
    /// @{
    /** Outcome of a guest-side unmap. */
    struct UnmapInfo
    {
        bool ok = false;
        Addr page = invalid_addr; //!< guest-virtual page base
        Translation old_guest;    //!< mapping that was removed
    };

    /**
     * Balloon inflate: remove the guest mapping of the page containing
     * @p gva and return its guest-physical frame to the pool (and, when
     * virtualized, release the host backing of that frame). The next
     * access refaults via ensureResident — the deflate path.
     */
    UnmapInfo balloonOut(Addr gva);

    /**
     * Migrate the backing of the page containing @p gva to a fresh
     * frame (NUMA rebalance): host-level re-backing when virtualized
     * (gPA unchanged, hPA changes), a guest-level remap otherwise. The
     * translation cached in TLBs goes stale either way.
     */
    bool migratePage(Addr gva);

    /** Split a 2MB guest mapping into 512 4KB mappings (THP demotion
     *  via copy, as khugepaged's inverse). @return pages created. */
    int thpDemote(Addr gva);

    /** Collapse 512 resident 4KB guest pages into one 2MB mapping
     *  (khugepaged). @return 4KB pages absorbed (0 when the 2MB region
     *  containing @p gva is not uniformly 4KB-mapped). */
    int thpPromote(Addr gva);

    /** Permission downgrade: write-protect the guest page containing
     *  @p gva. In-place PTE RMW where the organization stores flags
     *  (ECPT); for the others the downgrade is modeled as
     *  invalidate-only. @return true when the page was mapped. */
    bool writeProtectPage(Addr gva);

    /** VMA introspection for churn victim picking (deterministic). */
    std::size_t vmaCount() const { return vmas.size(); }
    std::pair<Addr, std::uint64_t>
    vmaRange(std::size_t i) const
    {
        return {vmas[i].base, vmas[i].bytes};
    }
    /// @}

    /// @name Functional translations (used by walkers as ground truth)
    /// A small direct-mapped memo of {4KB gVA page, mutationStamp(),
    /// guest translation, full translation} lets one access resolve its
    /// translation once: ensureResident() fills it from the lookups it
    /// makes anyway, and guestTranslate() and fullTranslate() answer
    /// from an entry whose stamp is still current. Every mutation
    /// funnel bumps the stamp, so an answer from the memo is the one
    /// the tables would give. The memo is off when either table is an
    /// HPT (its lookups count toward avgProbes()); peekFullTranslate()
    /// never reads it.
    /// @{
    /** gVA -> gPA (final in native mode). */
    Translation guestTranslate(Addr gva) const;

    /**
     * gPA -> hPA. Faults the backing in on first use (page-table pages
     * are touched by walks before any demand access reaches them).
     */
    Translation hostTranslate(Addr gpa);

    /**
     * gVA all the way to hPA with the *effective* page size
     * min(guest, host) — the granularity a nested TLB entry covers.
     */
    Translation fullTranslate(Addr gva);

    /**
     * Side-effect-free twin of fullTranslate(): never faults backing
     * in (an unmapped host page yields an invalid result instead), no
     * statistics (HPT paths go through the uncounted peek), no tracer
     * output. The layout goldens read every mapping through it, so
     * dumping a layout cannot perturb the run; a *valid* result is
     * exactly what fullTranslate() would return.
     */
    Translation peekFullTranslate(Addr gva) const;
    /// @}

    /// @name Structure access for walkers
    /// @{
    bool virtualized() const { return cfg.virtualized; }
    /// Each table accessor returns the table when it is of that
    /// organization and null otherwise (every host one when native).
    RadixPageTable *guestRadix() { return guestAs<RadixPageTable>(); }
    EcptPageTable *guestEcpt() { return guestAs<EcptPageTable>(); }
    RadixPageTable *hostRadix() { return hostAs<RadixPageTable>(); }
    EcptPageTable *hostEcpt() { return hostAs<EcptPageTable>(); }
    FlatPageTable *hostFlat() { return hostAs<FlatPageTable>(); }
    HashedPageTable *guestHpt() { return guestAs<HashedPageTable>(); }
    HashedPageTable *hostHpt() { return hostAs<HashedPageTable>(); }
    const EcptPageTable *guestEcpt() const
    {
        return guestAs<EcptPageTable>();
    }
    const EcptPageTable *hostEcpt() const { return hostAs<EcptPageTable>(); }

    /** Is @p gpa inside a guest page-table structure? (Section 4.3) */
    bool isPtRegion(Addr gpa) const { return pt_registry.contains(gpa); }
    /// @}

    /**
     * Cross-structure consistency audit: ECPT/CWT coherence on both
     * sides plus pool accounting. Run after injected faults to prove
     * the design absorbed them; throws InvariantViolation otherwise.
     */
    void auditInvariants() const;

    /// @name Accounting (Section 9.5)
    /// @{
    std::uint64_t guestStructureBytes() const;
    std::uint64_t hostStructureBytes() const;
    std::uint64_t guestPteBytes() const;  //!< 8B x mappings
    std::uint64_t hostPteBytes() const;
    std::uint64_t guestFaults() const { return guest_faults; }
    std::uint64_t hostFaults() const { return host_faults; }
    PhysMemPool &hostPool() { return *host_pool; }
    PhysMemPool &guestPool() { return *guest_pool; }
    /// @}

    const SystemConfig &config() const { return cfg; }

    /**
     * Adjust the guest THP coverage before any page is faulted in —
     * coverage is application-dependent (Section 9.1 / Figure 14).
     */
    void setGuestThpCoverage(double coverage)
    {
        cfg.guest_thp_coverage = coverage;
    }

  private:
    struct Vma
    {
        Addr base;
        std::uint64_t bytes;
        bool thp_eligible;
        bool use_1g = false;
        /** A guest fault (or a range pass) has mapped into it. Every
         *  other guest mapping path starts from an existing mapping,
         *  so an untouched VMA holds none. */
        bool touched = false;
    };

    Vma *vmaOf(Addr gva);

    /** The guest/host table as a @p T when it is of that organization
     *  (the configured kind names its dynamic type), else null. */
    template <class T>
    T *
    guestAs() const
    {
        return cfg.guest_kind == T::kind ? static_cast<T *>(guest_pt.get())
                                         : nullptr;
    }
    template <class T>
    T *
    hostAs() const
    {
        return cfg.host_kind == T::kind ? static_cast<T *>(host_pt.get())
                                        : nullptr;
    }

    /** Deterministic per-2MB-block THP feasibility draw. */
    bool blockCovered(std::uint64_t block, double coverage,
                      std::uint64_t salt) const;

    /**
     * The fault-in path behind ensureResident() and prefaultAll():
     * installs the guest mapping of @p gva and then the host backing
     * of its gPA, each only when missing, with one functional lookup
     * per level. Sets @p faulted when either level faulted.
     * @return the guest translation of @p gva.
     */
    Translation faultIn(Addr gva, bool &faulted);

    /**
     * Fault in every page of @p vma — prefaultAll()'s pass over one
     * VMA, leaving the same layout as faultIn() page by page. On an
     * untouched VMA it skips the lookups that must miss (guest
     * pages, and gPAs past host_mapped_end) and, where an ECPT has
     * just inserted a block's first page with no resize in flight,
     * installs the rest of the block with one mapRun(). Touched and
     * 1GB VMAs, HPT organizations and fault-injected runs keep
     * faultIn() per page.
     */
    void mapRange(Vma &vma);

    /** Back the guest frames @p gpas (in fault order) the way faultIn
     *  would, without the lookups that must miss (see mapRange). */
    void hostBackRun(const Addr *gpas, std::size_t n);

    /** Install a guest mapping for the page containing @p gva.
     *  @return the mapping installed. */
    Translation guestFaultIn(Addr gva, Vma &vma);

    /** Install host backing for the page containing @p gpa.
     *  @return the host mapping installed. */
    Translation hostFaultIn(Addr gpa);

    /** One remembered translation of a 4KB guest-virtual page. */
    struct MemoEntry
    {
        std::uint64_t page = ~0ULL; //!< gVA >> 12; ~0 never matches
        std::uint64_t stamp = 0;    //!< mutationStamp() when filled
        Translation guest;
        Translation full;
    };
    /** Enough that a walk's page survives the accesses other cores
     *  and overlapped walks issue while it runs (16 covers one core
     *  walking one page at a time). */
    static constexpr std::size_t memo_entries = 256;

    /** The memo entry for @p gva when its stamp is current, else null
     *  (always null with the memo off). */
    const MemoEntry *memoHit(Addr gva) const;

    /** Remember the valid translations @p guest and @p full of @p gva
     *  at the current stamp (no-op with the memo off). */
    void memoFill(Addr gva, const Translation &guest,
                  const Translation &full) const;

    /** Record that the 2MB gPA block holding @p gpa has a 4KB host
     *  mapping (consecutive 4KB faults of one block touch the set
     *  once). */
    void noteHost4kBlock(Addr gpa);

    void guestMap(Addr gva, Addr gpa, PageSize size);
    void hostMap(Addr gpa, Addr hpa, PageSize size);
    /** mapRun() twins of guestMap/hostMap: one mutation per page. */
    void guestMapRun(Addr gva, const Addr *gpas, std::size_t n,
                     PageSize size);
    void hostMapRun(Addr gpa, const Addr *hpas, std::size_t n,
                    PageSize size);

    /** Remove the guest mapping of @p page (base-aligned) at @p size. */
    void guestUnmap(Addr page, PageSize size);

    /** Remove the host mapping of @p page (base-aligned) at @p size. */
    void hostUnmap(Addr page, PageSize size);

    /** Unmap the guest page containing @p gva and free its frame. */
    UnmapInfo guestUnmapPage(Addr gva);

    SystemConfig cfg;

    std::unique_ptr<PhysMemPool> host_pool;
    std::unique_ptr<PhysMemPool> guest_pool;
    PtRegionRegistry pt_registry;
    PtRegionRegistry host_pt_registry;
    std::unique_ptr<PtRegionAllocator> guest_pt_alloc;
    std::unique_ptr<ScatteredPtAllocator> guest_node_alloc;
    std::unique_ptr<ScatteredPtAllocator> host_node_alloc;

    std::unique_ptr<PageTable> guest_pt;
    std::unique_ptr<PageTable> host_pt; //!< null when native

    std::vector<Vma> vmas;
    Addr mmap_cursor;

    /** First-touch THP decision per guest-virtual 1GB region. */
    std::unordered_map<std::uint64_t, bool> guest_block_thp;
    /** First-touch THP decision per guest-physical 1GB region. */
    std::unordered_map<std::uint64_t, bool> host_block_thp;
    /** gPA 2MB blocks already holding a 4KB mapping (e.g. a scattered
     *  page-table node): a huge host mapping would overlap them. */
    std::unordered_set<std::uint64_t> host_blocks_with_4k;
    /** Last block added to host_blocks_with_4k (never erased). */
    std::uint64_t last_host_4k_block = ~0ULL;

    /** Every host mapping ever made lies below this gPA, so a gPA at
     *  or past it is unbacked without a lookup. */
    Addr host_mapped_end = 0;

    std::uint64_t guest_faults = 0;
    std::uint64_t host_faults = 0;
    std::uint64_t mutation_stamp = 0;

    /** Off when either table is an HPT (counted lookups). */
    bool memo_on = false;
    mutable std::array<MemoEntry, memo_entries> memo{};
};

} // namespace necpt

#endif // NECPT_OS_SYSTEM_HH
