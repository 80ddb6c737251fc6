#include "uarch/cache.hh"

#include <algorithm>

#include "support/logging.hh"

namespace vanguard {

namespace {

bool
isPow2(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

unsigned
log2Of(uint64_t v)
{
    unsigned s = 0;
    while ((uint64_t{1} << s) < v)
        ++s;
    return s;
}

} // namespace

Cache::Cache(const CacheConfig &cfg) : cfg_(cfg)
{
    uint64_t total_lines = uint64_t{cfg.sizeKB} * 1024 / cfg.lineBytes;
    vg_assert(total_lines % cfg.ways == 0, "cache geometry");
    vg_assert(cfg.ways >= 1 && cfg.ways <= 64,
              "cache ways must fit the per-set valid bitmask");
    num_sets_ = static_cast<unsigned>(total_lines / cfg.ways);
    tags_ = std::make_unique_for_overwrite<uint64_t[]>(total_lines);
    lrus_ = std::make_unique_for_overwrite<uint64_t[]>(total_lines);
    valid_.assign(num_sets_, 0);
    mru_.assign(num_sets_, 0);
    full_mask_ = cfg.ways == 64 ? ~uint64_t{0}
                                : (uint64_t{1} << cfg.ways) - 1;

    line_pow2_ = isPow2(cfg_.lineBytes);
    if (line_pow2_)
        line_shift_ = log2Of(cfg_.lineBytes);
    sets_pow2_ = isPow2(num_sets_);
    if (sets_pow2_) {
        set_shift_ = log2Of(num_sets_);
        set_mask_ = num_sets_ - 1;
    }
}

uint64_t
Cache::setIndex(uint64_t addr) const
{
    // Modulo (not mask) so non-power-of-two geometries like the
    // Sec. 6.1 24KB I$ are expressible.
    return (addr / cfg_.lineBytes) % num_sets_;
}

uint64_t
Cache::tagOf(uint64_t addr) const
{
    return (addr / cfg_.lineBytes) / num_sets_;
}

bool
Cache::contains(uint64_t addr) const
{
    uint64_t set = setIndex(addr);
    uint64_t tag = tagOf(addr);
    const uint64_t *tags = &tags_[set * cfg_.ways];
    uint64_t vm = valid_[set];
    for (unsigned w = 0; w < cfg_.ways; ++w)
        if (((vm >> w) & 1) != 0 && tags[w] == tag)
            return true;
    return false;
}

void
Cache::invalidateAll()
{
    // Stale tags_/lrus_/mru_ entries are unreachable once their valid
    // bits drop (the invariant at tags_), so clearing the bitmasks
    // suffices.
    std::fill(valid_.begin(), valid_.end(), 0);
    hits_ = misses_ = 0;
    tick_ = 0;
}

MemoryHierarchy::MemoryHierarchy(const MachineConfig &cfg)
    : l1i_(cfg.l1i), l1d_(cfg.l1d), l2_(cfg.l2), l3_(cfg.l3),
      mem_latency_(cfg.memLatency),
      next_line_prefetch_(cfg.icacheNextLinePrefetch)
{
}

} // namespace vanguard
