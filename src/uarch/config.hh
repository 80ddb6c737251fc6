/**
 * @file
 * Machine configuration — the paper's Table 1, parameterized.
 *
 * | Bpred      | GShare, 24 KB 3-table; 4K BTB; 64-entry RAS        |
 * | Front-End  | 5 stages, 2/4/8-wide, 32-entry FetchBuffer         |
 * | Exec Ports | varied with width                                  |
 * | FUs        | up to 2 LD/ST, 2 INT, 4 FP, 1-cycle bypass         |
 * | L1         | 8-way 32KB D$, 4-way 32KB I$, 64B lines, 4 cycles  |
 * | L2         | 16-way 256KB unified, 12 cycles                    |
 * | L3         | 32-way 4MB, 25 cycles                              |
 * | Miss Hand. | 64-entry miss buffer                               |
 * | Memory     | 140 cycles                                         |
 */

#ifndef VANGUARD_UARCH_CONFIG_HH
#define VANGUARD_UARCH_CONFIG_HH

#include <string>

namespace vanguard {

/** Largest cache level the simulator accepts (64 MB, 16x the L3). */
inline constexpr unsigned kMaxCacheSizeKB = 64 * 1024;

/**
 * Largest front-end depth, cache latency or memory latency the
 * simulator accepts, in cycles. It bounds how far one instruction can
 * move a lane's clock, which keeps the fused lanes' 32-bit cycle
 * columns in range (uarch/lanes.hh).
 */
inline constexpr unsigned kMaxLatency = 1u << 16;

/**
 * One cache level's geometry. A usable one (checked before every
 * simulation) has sizeKB in 1..kMaxCacheSizeKB, a power-of-two
 * lineBytes, 1..64 ways, a whole, non-zero number of sets, and a
 * latency of at most kMaxLatency.
 */
struct CacheConfig
{
    unsigned sizeKB = 32;
    unsigned ways = 8;
    unsigned lineBytes = 64;
    unsigned latency = 4;   ///< total load-to-use latency on hit here

    bool operator==(const CacheConfig &) const = default;
};

struct MachineConfig
{
    unsigned width = 4;             ///< fetch/decode/issue width
    unsigned frontendStages = 5;
    unsigned fetchBufferEntries = 32;

    unsigned memPorts = 2;
    unsigned intPorts = 2;
    unsigned fpPorts = 4;

    std::string predictor = "gshare3";
    unsigned btbIndexBits = 12;     ///< 4K-entry BTB
    unsigned rasEntries = 64;

    unsigned dbbEntries = 16;       ///< Decomposed Branch Buffer size
    bool shadowCommit = true;       ///< fold temp->arch commit MOVs

    /** Next-line instruction prefetch (ablation knob; off matches
     *  the paper's Table-1 machine). */
    bool icacheNextLinePrefetch = false;

    CacheConfig l1i{32, 4, 64, 4};
    CacheConfig l1d{32, 8, 64, 4};
    CacheConfig l2{256, 16, 64, 12};
    CacheConfig l3{4096, 32, 64, 25};
    unsigned memLatency = 140;
    unsigned mshrEntries = 64;      ///< miss buffer entries

    /** The paper's three evaluated widths with ports scaled. */
    static MachineConfig
    widthVariant(unsigned w)
    {
        MachineConfig cfg;
        cfg.width = w;
        switch (w) {
          case 2:
            cfg.memPorts = 1;
            cfg.intPorts = 1;
            cfg.fpPorts = 2;
            break;
          case 4:
            break; // Table 1 defaults
          case 8:
            cfg.memPorts = 2;
            cfg.intPorts = 4;
            cfg.fpPorts = 4;
            break;
          default:
            break;
        }
        return cfg;
    }

    /** Render as a Table-1-like description. */
    std::string toString() const;

    bool operator==(const MachineConfig &) const = default;
};

} // namespace vanguard

#endif // VANGUARD_UARCH_CONFIG_HH
