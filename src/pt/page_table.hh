/**
 * @file
 * The interface every page-table organization offers the OS layer.
 *
 * NestedSystem owns one guest and one host table through this base and
 * drives demand faulting, churn, peeks and Section-9.5 accounting
 * through it alone; walkers reach the organization-specific structure
 * (probe plans, CWTs, radix steps) through NestedSystem's typed
 * accessors instead. A new organization is one subclass.
 */

#ifndef NECPT_PT_PAGE_TABLE_HH
#define NECPT_PT_PAGE_TABLE_HH

#include <cstddef>
#include <cstdint>

#include "pt/pte.hh"

namespace necpt
{

/** Page-table organization selector. */
enum class PtKind : std::uint8_t
{
    Radix,
    Ecpt,
    Flat, //!< host-side only (flat nested baseline, Section 9.6)
    Hpt,  //!< classic single hashed page table (Section 2.2; 4KB only)
};

/**
 * A functional translation structure for one address space. Each
 * subclass names its organization in a static `kind` member.
 */
class PageTable
{
  public:
    virtual ~PageTable() = default;

    /** Install va -> pa for a page of @p size. */
    virtual void map(Addr va, Addr pa, PageSize size) = 0;

    /**
     * Install @p n pages of @p size at consecutive addresses from
     * @p va, page i mapping to @p pas[i]. Equivalent to @p n map()
     * calls in order: the same final layout, statistics and region
     * allocations. An organization may override it to make fewer
     * table updates.
     */
    virtual void
    mapRun(Addr va, const Addr *pas, std::size_t n, PageSize size)
    {
        for (std::size_t i = 0; i < n; ++i)
            map(va + i * pageBytes(size), pas[i], size);
    }

    /** Remove the mapping of the page at @p va (base-aligned). */
    virtual void unmap(Addr va, PageSize size) = 0;

    /** Functional lookup (no timing). May count statistics. */
    virtual Translation lookup(Addr va) const = 0;

    /** Lookup that never counts toward any statistic. */
    virtual Translation peek(Addr va) const { return lookup(va); }

    /**
     * Permission downgrade of the page at @p va. Organizations that
     * store no flag word model it as invalidate-only: the mapping
     * stays and the caller's shootdown is the downgrade.
     * @return false when the organization found no mapping to
     *         downgrade.
     */
    virtual bool writeProtect(Addr, PageSize) { return true; }

    /** Bytes of table structure (Section 9.5 accounting). */
    virtual std::uint64_t structureBytes() const = 0;

    /** Number of leaf mappings installed, over every page size. */
    virtual std::uint64_t mappingCount() const = 0;
};

} // namespace necpt

#endif // NECPT_PT_PAGE_TABLE_HH
