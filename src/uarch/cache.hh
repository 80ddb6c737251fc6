/**
 * @file
 * Set-associative cache model with LRU replacement, and the three-level
 * hierarchy + main memory of the paper's Table 1.
 */

#ifndef VANGUARD_UARCH_CACHE_HH
#define VANGUARD_UARCH_CACHE_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "uarch/config.hh"

namespace vanguard {

/** One cache level: LRU, write-allocate, tag-only (no data stored). */
class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg);

    /**
     * True on hit. Misses allocate the line (caller recurses down).
     * Defined inline: this is the innermost call of every simulated
     * memory access, and the set/tag math strength-reduces to
     * shift/mask for power-of-two geometries (the modulo fallback keeps
     * shapes like the Sec. 6.1 24KB I$ expressible).
     */
    bool
    access(uint64_t addr)
    {
        uint64_t line = lineOf(addr);
        uint64_t set = sets_pow2_ ? (line & set_mask_) : (line % num_sets_);
        uint64_t tag = sets_pow2_ ? (line >> set_shift_) : (line / num_sets_);
        size_t row = set * cfg_.ways;
        uint64_t *tags = &tags_[row];
        uint64_t vm = valid_[set];
        ++tick_;

        // MRU filter: sets exhibit way locality, so re-checking the
        // most recently touched way first turns the common repeat-hit
        // into a single tag compare. Pure fast path — a hit is a hit
        // whichever compare found it, so hit/miss/LRU state is
        // unchanged.
        unsigned m = mru_[set];
        if (((vm >> m) & 1) != 0 && tags[m] == tag) {
            lrus_[row + m] = tick_;
            ++hits_;
            return true;
        }

        // The hit scan reads only the contiguous tag row (one host
        // cache line for the common 8-way geometry) plus the per-set
        // valid bitmask; LRU state is untouched until the outcome is
        // known. Victim choice matches the original AoS scan: the
        // first invalid way, else the lowest-lru valid way,
        // first-on-tie.
        for (unsigned w = 0; w < cfg_.ways; ++w) {
            if (((vm >> w) & 1) != 0 && tags[w] == tag) {
                lrus_[row + w] = tick_;
                mru_[set] = static_cast<uint8_t>(w);
                ++hits_;
                return true;
            }
        }
        ++misses_;
        unsigned victim;
        if (vm != full_mask_) {
            victim = static_cast<unsigned>(std::countr_one(vm));
        } else {
            const uint64_t *lrus = &lrus_[row];
            victim = 0;
            for (unsigned w = 1; w < cfg_.ways; ++w)
                if (lrus[w] < lrus[victim])
                    victim = w;
        }
        valid_[set] = vm | (uint64_t{1} << victim);
        tags[victim] = tag;
        lrus_[row + victim] = tick_;
        mru_[set] = static_cast<uint8_t>(victim);
        return false;
    }

    /** Probe without allocation or LRU update. */
    bool contains(uint64_t addr) const;

    void invalidateAll();

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    uint64_t accesses() const { return hits_ + misses_; }

    double
    missRate() const
    {
        return accesses() == 0
            ? 0.0
            : static_cast<double>(misses_) /
                  static_cast<double>(accesses());
    }

    unsigned latency() const { return cfg_.latency; }
    unsigned lineBytes() const { return cfg_.lineBytes; }

  private:
    uint64_t setIndex(uint64_t addr) const;
    uint64_t tagOf(uint64_t addr) const;

    uint64_t
    lineOf(uint64_t addr) const
    {
        return line_pow2_ ? (addr >> line_shift_)
                          : (addr / cfg_.lineBytes);
    }

    CacheConfig cfg_;
    unsigned num_sets_;
    // Structure-of-arrays line state, num_sets_ x ways row-major, with
    // validity packed one bitmask per set (hence ways <= 64, asserted
    // in the constructor). The hit scan touches tags_ only; lrus_ is
    // read on the miss path and written once per access.
    //
    // Invariant: a way's tags_/lrus_ slots are read only while its
    // valid bit is set, and a valid bit is set only together with
    // writing both slots. The MRU check, the hit scan and contains()
    // test the bit before the tag; the LRU victim scan runs only on a
    // full set. So both arrays start uninitialised (no zero-fill of
    // pages a run may never touch), and invalidateAll() need only
    // clear valid_.
    std::unique_ptr<uint64_t[]> tags_;
    std::unique_ptr<uint64_t[]> lrus_;
    std::vector<uint64_t> valid_;   ///< per-set way bitmask
    std::vector<uint8_t> mru_;      ///< per-set last-touched way
    uint64_t full_mask_ = 0;        ///< valid_ value when all ways live
    uint64_t tick_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;

    // Strength-reduction constants derived from the geometry in the
    // constructor; the *_pow2_ flags select shift/mask vs div/mod.
    bool line_pow2_ = false;
    bool sets_pow2_ = false;
    unsigned line_shift_ = 0;
    unsigned set_shift_ = 0;
    uint64_t set_mask_ = 0;
};

/** Result of one hierarchy access. */
struct MemAccessResult
{
    unsigned latency = 0;   ///< total load-to-use latency in cycles
    unsigned level = 1;     ///< 1=L1, 2=L2, 3=L3, 4=memory
};

/**
 * L1I + L1D backed by a unified L2, L3, and main memory. Instruction
 * and data accesses share L2/L3 state (unified, as in Table 1).
 */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const MachineConfig &cfg);

    /** Data-side access (loads and stores; write-allocate). Inline for
     *  the same reason as Cache::access — once per simulated LD/ST. */
    MemAccessResult
    dataAccess(uint64_t addr)
    {
        MemAccessResult r;
        if (l1d_.access(addr)) {
            r.latency = l1d_.latency();
            r.level = 1;
            return r;
        }
        if (l2_.access(addr)) {
            r.latency = l2_.latency();
            r.level = 2;
            return r;
        }
        if (l3_.access(addr)) {
            r.latency = l3_.latency();
            r.level = 3;
            return r;
        }
        r.latency = mem_latency_;
        r.level = 4;
        return r;
    }

    /**
     * Instruction-side access for one cache line. Returns the *extra*
     * fetch stall beyond the pipelined L1I hit path (0 on hit).
     * Inline like dataAccess: once per fetched I-line.
     */
    unsigned
    instAccess(uint64_t line_addr)
    {
        unsigned penalty;
        if (l1i_.access(line_addr)) {
            penalty = 0;
        } else if (l2_.access(line_addr)) {
            penalty = l2_.latency();
        } else if (l3_.access(line_addr)) {
            penalty = l3_.latency();
        } else {
            penalty = mem_latency_;
        }

        // Optimistic next-line prefetch: bring the sequentially next
        // line into the I$ (and the levels below) off the critical
        // path.
        if (next_line_prefetch_) {
            uint64_t next = line_addr + l1i_.lineBytes();
            if (!l1i_.contains(next)) {
                ++inst_prefetches_;
                l1i_.access(next);
                if (!l2_.contains(next)) {
                    l2_.access(next);
                    l3_.access(next);
                }
            }
        }
        return penalty;
    }

    /** Enable next-line instruction prefetching. */
    void setNextLinePrefetch(bool enable)
    {
        next_line_prefetch_ = enable;
    }

    uint64_t instPrefetches() const { return inst_prefetches_; }

    const Cache &l1i() const { return l1i_; }
    const Cache &l1d() const { return l1d_; }
    const Cache &l2() const { return l2_; }
    const Cache &l3() const { return l3_; }

  private:
    Cache l1i_;
    Cache l1d_;
    Cache l2_;
    Cache l3_;
    unsigned mem_latency_;
    bool next_line_prefetch_ = false;
    uint64_t inst_prefetches_ = 0;
};

} // namespace vanguard

#endif // VANGUARD_UARCH_CACHE_HH
