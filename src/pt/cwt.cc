#include "pt/cwt.hh"

namespace necpt
{

/** Section granularity per CWT level (see file header). */
int
sectionShiftFor(PageSize level)
{
    switch (level) {
      case PageSize::Page4K:
        return pageShift(PageSize::Page4K) + 3; // 32KB PTE-ECPT block
      case PageSize::Page2M:
        return pageShift(PageSize::Page2M);
      case PageSize::Page1G:
        return pageShift(PageSize::Page1G);
    }
    return 15;
}

CuckooWalkTable::CuckooWalkTable(RegionAllocator &allocator, PageSize level,
                                 const CuckooConfig &config)
    : alloc(allocator),
      level_(level),
      section_shift(sectionShiftFor(level)),
      entry_shift(sectionShiftFor(level) + 11),  // 2048-section granule
      chunk_shift(sectionShiftFor(level) + 13)   // 8192-section chunk
{
    (void)config;
}

CuckooWalkTable::~CuckooWalkTable()
{
    for (auto &[key, chunk] : chunks)
        alloc.freeRegion(chunk.base, chunk_bytes);
}

CuckooWalkTable::Chunk &
CuckooWalkTable::chunkOf(Addr va)
{
    const std::uint64_t key = chunkKey(va);
    if (cached_chunk && cached_chunk_key == key)
        return *cached_chunk;
    auto [it, fresh] = chunks.try_emplace(key);
    if (fresh)
        it->second.base = alloc.allocRegion(chunk_bytes);
    cached_chunk_key = key;
    cached_chunk = &it->second;
    return it->second;
}

const CuckooWalkTable::Chunk *
CuckooWalkTable::peekChunk(Addr va) const
{
    auto it = chunks.find(chunkKey(va));
    return it == chunks.end() ? nullptr : &it->second;
}

std::uint8_t
CuckooWalkTable::packNibble(const CwtDescriptor &d)
{
    // present=1: | spare | way(2) | 1 |
    // present=0: | spare | smaller_2m | smaller_4k | 0 |
    if (d.present)
        return static_cast<std::uint8_t>(1u | (d.way & 0x3) << 1);
    return static_cast<std::uint8_t>((d.smaller_4k ? 1u : 0u) << 1
                                     | (d.smaller_2m ? 1u : 0u) << 2);
}

CwtDescriptor
CuckooWalkTable::unpackNibble(std::uint8_t nibble)
{
    CwtDescriptor d;
    d.present = nibble & 0x1;
    if (d.present) {
        d.way = static_cast<std::uint8_t>((nibble >> 1) & 0x3);
    } else {
        d.smaller_4k = (nibble >> 1) & 0x1;
        d.smaller_2m = (nibble >> 2) & 0x1;
    }
    return d;
}

std::array<std::uint32_t, 2> &
CuckooWalkTable::countsOf(Addr va)
{
    const std::uint64_t key = sectionKey(va);
    if (!cached_counts || cached_counts_key != key) {
        cached_counts_key = key;
        cached_counts = &smaller_counts[key];
    }
    return *cached_counts;
}

CwtDescriptor
CuckooWalkTable::readSection(const Chunk &chunk, int section)
{
    const std::uint8_t byte = chunk.nibbles[section / 2];
    return unpackNibble((byte >> ((section % 2) * 4)) & 0xF);
}

void
CuckooWalkTable::writeSection(Chunk &chunk, int section,
                              const CwtDescriptor &d)
{
    std::uint8_t &byte = chunk.nibbles[section / 2];
    const int shift = (section % 2) * 4;
    byte = static_cast<std::uint8_t>(
        (byte & ~(0xF << shift)) | (packNibble(d) << shift));
}

// The read-modify-write updates below materialize the chunk before
// reading it: a section of a fresh chunk reads as the all-clear
// descriptor, and a chunk's region is allocated by the first update
// that touches it.

void
CuckooWalkTable::setPresent(Addr va, int way)
{
    // A section mapped at this size has nothing smaller inside it.
    CwtDescriptor d;
    d.present = true;
    d.way = static_cast<std::uint8_t>(way);
    writeSection(chunkOf(va), sectionOf(va), d);
}

void
CuckooWalkTable::clearPresent(Addr va)
{
    Chunk &chunk = chunkOf(va);
    CwtDescriptor d = readSection(chunk, sectionOf(va));
    d.present = false;
    d.way = 0;
    writeSection(chunk, sectionOf(va), d);
}

void
CuckooWalkTable::setHasSmaller(Addr va, PageSize smaller)
{
    Chunk &chunk = chunkOf(va);
    CwtDescriptor d = readSection(chunk, sectionOf(va));
    const bool already = (smaller == PageSize::Page4K && d.smaller_4k)
        || (smaller == PageSize::Page2M && d.smaller_2m);
    if (already && !d.present)
        return; // avoid RMW churn
    d.present = false;
    d.way = 0;
    if (smaller == PageSize::Page4K)
        d.smaller_4k = true;
    else if (smaller == PageSize::Page2M)
        d.smaller_2m = true;
    writeSection(chunk, sectionOf(va), d);
}

void
CuckooWalkTable::addSmaller(Addr va, PageSize smaller)
{
    ++countsOf(va)[smaller == PageSize::Page4K ? 0 : 1];
    setHasSmaller(va, smaller);
}

void
CuckooWalkTable::removeSmaller(Addr va, PageSize smaller)
{
    const int idx = smaller == PageSize::Page4K ? 0 : 1;
    auto it = smaller_counts.find(sectionKey(va));
    NECPT_ASSERT(it != smaller_counts.end() && it->second[idx] > 0);
    if (--it->second[idx] > 0)
        return;
    // Last page of this size in the section: downgrade the descriptor.
    Chunk &chunk = chunkOf(va);
    CwtDescriptor d = readSection(chunk, sectionOf(va));
    if (smaller == PageSize::Page4K)
        d.smaller_4k = false;
    else
        d.smaller_2m = false;
    writeSection(chunk, sectionOf(va), d);
    if (it->second[0] == 0 && it->second[1] == 0) {
        if (cached_counts == &it->second)
            cached_counts = nullptr;
        smaller_counts.erase(it);
    }
}

std::optional<CwtDescriptor>
CuckooWalkTable::query(Addr va) const
{
    const Chunk *chunk = peekChunk(va);
    if (!chunk)
        return std::nullopt;
    return readSection(*chunk, sectionOf(va));
}

void
CuckooWalkTable::entryProbeAddrs(Addr va, std::vector<Addr> &out) const
{
    const Chunk *chunk = peekChunk(va);
    // The refill fetches the descriptor line within the chunk. An
    // untouched chunk still costs a fetch attempt at where it would
    // live; charge the chunk base in that case.
    const Addr base = chunk ? chunk->base : invalid_addr;
    if (base == invalid_addr)
        return;
    const int section = sectionOf(va);
    out.push_back(base + static_cast<Addr>(section / 2) / line_bytes
                             * line_bytes);
}

} // namespace necpt
