/**
 * @file
 * The MAGIC data cache (MDC) and instruction cache (MIC) models.
 *
 * Protocol code and data live in main memory; the PP reaches them
 * through these on-chip caches (Section 5.2). The MDC is modeled as a
 * tag-only set-associative cache: each PP load/store probes it and a
 * miss costs the 29-cycle penalty plus a main-memory fill (and possibly
 * a dirty-victim writeback, both of which occupy the node's memory
 * system).
 */

#ifndef FLASHSIM_MAGIC_MAGIC_CACHE_HH_
#define FLASHSIM_MAGIC_MAGIC_CACHE_HH_

#include <cstdint>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace flashsim::magic
{

/** Outcome of one MDC access. */
struct MdcAccess
{
    bool hit = true;
    bool victimWriteback = false; ///< a dirty victim was evicted
};

/** Tag-only set-associative cache with LRU replacement. */
class MagicCache
{
  public:
    MagicCache(std::uint32_t size_bytes, std::uint32_t assoc,
               std::uint32_t line_bytes);

    /** Probe/fill for @p addr; updates LRU and dirty state. Inline:
     *  the PP executor probes it on every handler load and store. */
    MdcAccess access(Addr addr, bool is_write);

    /** Invalidate all entries (used between benchmark phases). */
    void flush();

    // Statistics (Section 5.2 reports overall/read/write miss rates).
    Counter reads = 0;
    Counter readMisses = 0;
    Counter writes = 0;
    Counter writeMisses = 0;
    Counter writebacks = 0;

    double
    missRate() const
    {
        return ratio(static_cast<double>(readMisses + writeMisses),
                     static_cast<double>(reads + writes));
    }

    double
    readMissRate() const
    {
        return ratio(static_cast<double>(readMisses),
                     static_cast<double>(reads));
    }

    double
    writeMissRate() const
    {
        return ratio(static_cast<double>(writeMisses),
                     static_cast<double>(writes));
    }

  private:
    struct Way
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0;
        std::uint64_t lru = 0;
    };

    std::uint32_t numSets_;
    std::uint32_t assoc_;
    std::uint32_t lineBytes_;
    std::uint32_t lineShift_ = 0; ///< log2(lineBytes_)
    std::uint32_t setShift_ = 0;  ///< log2(numSets_)
    std::uint64_t lruClock_ = 0;
    std::vector<Way> ways_; ///< numSets_ * assoc_, set-major
};

inline MdcAccess
MagicCache::access(Addr addr, bool is_write)
{
    MdcAccess result;
    if (is_write)
        ++writes;
    else
        ++reads;

    Addr line = addr >> lineShift_;
    std::uint32_t set = static_cast<std::uint32_t>(line) & (numSets_ - 1);
    Addr tag = line >> setShift_;
    Way *base = &ways_[static_cast<std::size_t>(set) * assoc_];

    for (std::uint32_t w = 0; w < assoc_; ++w) {
        Way &way = base[w];
        if (way.valid && way.tag == tag) {
            way.lru = ++lruClock_;
            way.dirty = way.dirty || is_write;
            return result;
        }
    }

    // Miss: fill into the LRU (or an invalid) way.
    result.hit = false;
    if (is_write)
        ++writeMisses;
    else
        ++readMisses;

    Way *victim = base;
    for (std::uint32_t w = 1; w < assoc_; ++w) {
        Way &way = base[w];
        if (!way.valid) {
            victim = &way;
            break;
        }
        if (!victim->valid)
            break;
        if (way.lru < victim->lru)
            victim = &way;
    }
    if (victim->valid && victim->dirty) {
        result.victimWriteback = true;
        ++writebacks;
    }
    victim->valid = true;
    victim->dirty = is_write;
    victim->tag = tag;
    victim->lru = ++lruClock_;
    return result;
}

} // namespace flashsim::magic

#endif // FLASHSIM_MAGIC_MAGIC_CACHE_HH_
