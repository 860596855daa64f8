#include "magic/magic_cache.hh"

#include "sim/logging.hh"

namespace flashsim::magic
{

MagicCache::MagicCache(std::uint32_t size_bytes, std::uint32_t assoc,
                       std::uint32_t line_bytes)
    : numSets_(size_bytes / (assoc * line_bytes)), assoc_(assoc),
      lineBytes_(line_bytes)
{
    if (numSets_ == 0 || (numSets_ & (numSets_ - 1)) != 0)
        fatal("MagicCache: set count %u must be a nonzero power of two",
              numSets_);
    if (lineBytes_ == 0 || (lineBytes_ & (lineBytes_ - 1)) != 0)
        fatal("MagicCache: line size %u must be a nonzero power of two",
              lineBytes_);
    // Hot-path probes index with shifts, not 64-bit divisions.
    for (std::uint32_t b = lineBytes_; b > 1; b >>= 1)
        ++lineShift_;
    for (std::uint32_t ns = numSets_; ns > 1; ns >>= 1)
        ++setShift_;
    ways_.resize(static_cast<std::size_t>(numSets_) * assoc_);
}

void
MagicCache::flush()
{
    for (Way &w : ways_)
        w = Way{};
}

} // namespace flashsim::magic
