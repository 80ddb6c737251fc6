#include "workloads/kernel.hh"

#include <algorithm>

#include "ir/builder.hh"
#include "support/logging.hh"
#include "workloads/stream.hh"

namespace vanguard {

namespace {

// Register conventions (architectural bank).
constexpr RegId kRegI = 0;        // loop counter
constexpr RegId kRegN = 1;        // trip count
constexpr RegId kRegLfsr = 2;     // xorshift state
constexpr RegId kRegAccI = 3;     // integer accumulator
constexpr RegId kRegAccF = 4;     // FP accumulator
constexpr RegId kRegOutBase = 5;
constexpr RegId kRegDataBase = 6;
constexpr RegId kRegStateBase = 7; // branch run-state flags
constexpr unsigned kMaxHammocks = 8;

// Scratch registers (per-block locals).
constexpr RegId kScrT = 16;
constexpr RegId kScrS = 17;       // loaded run state
constexpr RegId kScrNs = 18;      // next run state
constexpr RegId kScrNb = 20;      // PRNG byte
constexpr RegId kScrFt = 21;      // flip? (taken-state threshold)
constexpr RegId kScrFn = 22;      // flip? (not-taken-state threshold)
constexpr RegId kScrFlip = 23;
constexpr RegId kScrCond = 24;
constexpr RegId kScrIx = 25;
constexpr RegId kScrAd = 26;
constexpr RegId kScrV0 = 27;      // r27..r30: loaded values

constexpr uint64_t kOutBytes = 64 * 1024;
constexpr uint64_t kStateBytes = 4 * 1024;
constexpr uint64_t kDataPad = 8 * 1024;

struct HammockParams
{
    StreamParams stream;
    FlipThresholds thresholds;
};

uint64_t
roundUpPow2(uint64_t v)
{
    uint64_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

/** Data-memory layout; the code bakes these addresses in. */
struct KernelLayout
{
    uint64_t wsBytes = 0;
    uint64_t stateBase = 0;
    uint64_t dataBase = 0;
    uint64_t total = 0;
};

KernelLayout
kernelLayout(const BenchmarkSpec &spec)
{
    unsigned num_hammocks = spec.totalHammocks();
    vg_assert(num_hammocks >= 1 && num_hammocks <= kMaxHammocks,
              "benchmark '%s': 1..8 hammocks supported", spec.name);
    KernelLayout l;
    l.wsBytes = roundUpPow2(uint64_t{spec.workingSetKB} * 1024);
    l.stateBase = kOutBytes;
    l.dataBase = l.stateBase + kStateBytes;
    l.total = l.dataBase + l.wsBytes + kDataPad;
    return l;
}

/** Emit the successor-block body for one hammock side. */
void
emitSuccessorBody(IRBuilder &b, const BenchmarkSpec &spec,
                  unsigned hammock, bool taken_side,
                  uint64_t ws_bytes)
{
    auto emit_stores = [&] {
        if (spec.storesPerSucc == 0)
            return;
        // out index = (i & outMask) * 8; mask to half the region so
        // the per-hammock offsets below stay inside the out array.
        b.andi(kScrIx, kRegI, (kOutBytes / 16) - 1);
        b.shli(kScrIx, kScrIx, 3);
        b.add(kScrAd, kRegOutBase, kScrIx);
        for (unsigned s = 0; s < spec.storesPerSucc; ++s) {
            int64_t off = static_cast<int64_t>(
                (hammock * 2 + (taken_side ? 1 : 0)) * 8 + s * 16);
            b.store(kScrAd, off % 4096, kRegAccI);
        }
    };

    if (spec.storesEarly)
        emit_stores();

    // Address generation: stream through the working set.
    unsigned num_loads = spec.loadsPerSucc;
    if (num_loads > 0) {
        b.op2i(Opcode::MUL, kScrIx, kRegI,
               static_cast<int64_t>(spec.strideLines) * 64);
        b.andi(kScrIx, kScrIx, static_cast<int64_t>(ws_bytes - 1));
        b.add(kScrAd, kRegDataBase, kScrIx);
        for (unsigned l = 0; l < num_loads; ++l) {
            RegId dst = static_cast<RegId>(kScrV0 + (l % 4));
            // Distinct lines per load; stay within the pad region.
            int64_t off = static_cast<int64_t>(
                l * 136 + hammock * 272 + (taken_side ? 64 : 0));
            if (l >= 1 && l <= spec.chainedSuccLoads) {
                // Pointer-chase hop: the address needs the previous
                // value (loaded bytes are < 256, so the data-derived
                // offset stays inside the padded region).
                RegId prev = static_cast<RegId>(kScrV0 + ((l - 1) % 4));
                b.andi(kScrIx, prev, 0xF8);
                b.add(kScrIx, kScrAd, kScrIx);
                b.load(dst, kScrIx, off);
            } else {
                b.load(dst, kScrAd, off);
            }
        }
    }

    // Integer compute over the loaded values.
    for (unsigned k = 0; k < spec.aluPerSucc; ++k) {
        RegId v = static_cast<RegId>(
            kScrV0 + (num_loads ? (k % std::min(num_loads, 4u)) : 0));
        if (num_loads == 0)
            v = kRegLfsr;
        switch (k % 3) {
          case 0:
            b.add(kRegAccI, kRegAccI, v);
            break;
          case 1:
            b.xorOp(kScrT, kRegAccI, v);
            break;
          default:
            b.add(kRegAccI, kRegAccI, kScrT);
            break;
        }
    }

    // FP lane (FP-suite benchmarks): long-latency chains.
    for (unsigned k = 0; k < spec.fpPerSucc; ++k) {
        RegId v = static_cast<RegId>(
            kScrV0 + (num_loads ? (k % std::min(num_loads, 4u)) : 0));
        if (num_loads == 0)
            v = kRegAccI;
        if (k % 2 == 0)
            b.op2(Opcode::FADD, kRegAccF, kRegAccF, v);
        else
            b.op2(Opcode::FMUL, kScrT, kRegAccF, v);
    }

    if (!spec.storesEarly)
        emit_stores();
}

} // namespace

Memory
buildKernelMemory(const BenchmarkSpec &spec, uint64_t input_seed)
{
    KernelLayout layout = kernelLayout(spec);
    unsigned num_hammocks = spec.totalHammocks();
    Rng rng(input_seed ^ 0x9e3779b9u);
    Memory mem(layout.total);

    // ---- per-hammock stream parameters --------------------------------
    for (unsigned h = 0; h < num_hammocks; ++h) {
        HammockParams hp;
        double jitter = (rng.uniform() - 0.5) * 0.10; // input variation
        if (h < spec.hammocksPU) {
            hp.stream.takenFraction = spec.takenPU + jitter;
            hp.stream.flipRate = spec.noisePU;
        } else if (h < spec.hammocksPU + spec.hammocksBP) {
            hp.stream.takenFraction = 0.94 + jitter * 0.5;
            hp.stream.flipRate = 0.03;
        } else {
            hp.stream.takenFraction = 0.5 + jitter;
            hp.stream.flipRate = 0.5; // run length 2: unpredictable
        }
        // Input-dependent noise scaling: REF inputs differ in how
        // turbulent their branch behaviour is, not just in bias.
        hp.stream.flipRate *= 0.7 + rng.uniform() * 0.7;
        if (hp.stream.flipRate > 1.0)
            hp.stream.flipRate = 1.0;
        hp.thresholds = flipThresholds(hp.stream);

        // Everything input-dependent lives in DATA memory (the code,
        // like a real binary, is identical across inputs): the initial
        // run state and the per-hammock flip thresholds.
        uint64_t cell = layout.stateBase + uint64_t{h} * 64;
        mem.write64(cell, rng.chance(hp.stream.takenFraction) ? 1 : 0);
        mem.write64(cell + 8, hp.thresholds.whenTaken);
        mem.write64(cell + 16, hp.thresholds.whenNotTaken);
    }
    // PRNG seed for the in-register noise source (input-dependent).
    mem.write64(layout.stateBase + 2040,
                static_cast<int64_t>(rng.next() | 1));

    // Data array contents: small pseudo-random values.
    for (uint64_t a = layout.dataBase; a + 8 <= layout.total; a += 8)
        mem.write64(a, static_cast<int64_t>(rng.below(256)));
    return mem;
}

KernelCode
buildKernelCode(const BenchmarkSpec &spec)
{
    KernelLayout layout = kernelLayout(spec);
    unsigned num_hammocks = spec.totalHammocks();
    KernelCode out{Function(spec.name)};
    Function &fn = out.fn;
    IRBuilder b(fn);

    b.startBlock("entry");
    b.movi(kRegI, 0);
    b.movi(kRegN, static_cast<int64_t>(spec.iterations));
    b.movi(kRegStateBase, static_cast<int64_t>(layout.stateBase));
    b.load(kRegLfsr, kRegStateBase, 2040); // input-seeded xorshift
    b.movi(kRegAccI, 0);
    b.movi(kRegAccF, 1);
    b.movi(kRegOutBase, 0);
    b.movi(kRegDataBase, static_cast<int64_t>(layout.dataBase));
    // Patched below once the first hammock block id is known.
    b.jmp(0);

    // Pre-create the chain skeleton so targets are known.
    std::vector<BlockId> a_blocks(num_hammocks);
    std::vector<BlockId> t_blocks(num_hammocks);
    std::vector<BlockId> f_blocks(num_hammocks);
    for (unsigned h = 0; h < num_hammocks; ++h) {
        a_blocks[h] = fn.addBlock("A" + std::to_string(h));
        t_blocks[h] = fn.addBlock("T" + std::to_string(h));
        f_blocks[h] = fn.addBlock("F" + std::to_string(h));
    }
    BlockId latch = fn.addBlock("latch");
    std::vector<BlockId> cold_blocks(spec.coldBlocks);
    for (unsigned c = 0; c < spec.coldBlocks; ++c)
        cold_blocks[c] = fn.addBlock("cold" + std::to_string(c));
    BlockId latch2 = fn.addBlock("latch2");
    BlockId exit = fn.addBlock("exit");

    fn.block(0).terminator().takenTarget = a_blocks[0];

    for (unsigned h = 0; h < num_hammocks; ++h) {
        b.setInsertPoint(a_blocks[h]);

        // Per-hammock noise byte: lane h of the xorshift state, which
        // the loop latch advances once per iteration (keeping hammock
        // blocks lean, as real hot blocks are).
        b.shri(kScrNb, kRegLfsr, static_cast<int64_t>(h) * 8);

        // Condition-feeding data load: values are < 2^63, so the
        // sign bit contributed below is always zero and the branch
        // outcome stays exactly the Markov stream — but the condition
        // now has a true dependence on a recent, possibly-missing
        // load, the resolution-stall scenario of the paper's omnetpp
        // example (its cmp consumed fresh loads, Fig. 6). Mixing the
        // running accumulator into the address serializes successive
        // condition chains through the successor blocks' loads, like
        // real pointer-linked data structures do — without that, the
        // in-order pipeline would overlap adjacent hammocks' condition
        // loads and hide the resolution latency entirely.
        b.op2i(Opcode::MUL, kScrIx, kRegI,
               static_cast<int64_t>(spec.strideLines) * 64);
        b.add(kScrIx, kScrIx, kRegAccI);
        b.andi(kScrIx, kScrIx, static_cast<int64_t>(layout.wsBytes - 1));
        b.add(kScrAd, kRegDataBase, kScrIx);
        b.load(kScrV0, kScrAd, static_cast<int64_t>(h * 136 + 4096));
        // Serial work between the load and the compare (index
        // arithmetic in the real codes); the xor-with-self below
        // contributes exactly zero whatever these produce.
        for (unsigned k = 0; k < spec.condChainOps; ++k)
            b.op2i(Opcode::MUL, kScrV0, kScrV0, 3);

        // Markov run-state condition (see stream.hh): load the flag,
        // flip with a state-dependent probability, store it back.
        int64_t state_off = static_cast<int64_t>(h) * 64;
        b.load(kScrS, kRegStateBase, state_off);
        b.load(kScrFt, kRegStateBase, state_off + 8);
        b.load(kScrFn, kRegStateBase, state_off + 16);
        b.andi(kScrNb, kScrNb, 255);
        b.cmp(Opcode::CMPLT, kScrFt, kScrNb, kScrFt);
        b.cmp(Opcode::CMPLT, kScrFn, kScrNb, kScrFn);
        b.select(kScrFlip, kScrS, kScrFt, kScrFn);
        b.xorOp(kScrNs, kScrS, kScrFlip);
        b.store(kRegStateBase, state_off, kScrNs);
        b.xorOp(kScrT, kScrV0, kScrV0);     // always 0...
        b.xorOp(kScrNs, kScrNs, kScrT);     // ...but a real dependence
        b.cmpi(Opcode::CMPNE, kScrCond, kScrNs, 0);
        b.br(kScrCond, t_blocks[h], f_blocks[h]);

        BlockId join = h + 1 < num_hammocks ? a_blocks[h + 1] : latch;

        b.setInsertPoint(t_blocks[h]);
        emitSuccessorBody(b, spec, h, true, layout.wsBytes);
        b.jmp(join);

        b.setInsertPoint(f_blocks[h]);
        emitSuccessorBody(b, spec, h, false, layout.wsBytes);
        b.jmp(join);
    }

    // Loop latch: advance the shared xorshift noise source once per
    // iteration; every coldPeriod-th iteration detours through the
    // semi-cold region before the (backward, highly biased) loop
    // branch in latch2.
    b.setInsertPoint(latch);
    b.shli(kScrT, kRegLfsr, 13);
    b.xorOp(kRegLfsr, kRegLfsr, kScrT);
    b.shri(kScrT, kRegLfsr, 7);
    b.xorOp(kRegLfsr, kRegLfsr, kScrT);
    b.shli(kScrT, kRegLfsr, 17);
    b.xorOp(kRegLfsr, kRegLfsr, kScrT);
    b.addi(kRegI, kRegI, 1);
    if (spec.coldBlocks > 0) {
        b.andi(kScrIx, kRegI,
               static_cast<int64_t>(spec.coldPeriod - 1));
        b.cmpi(Opcode::CMPNE, kScrFn, kScrIx, 0);
        b.br(kScrFn, latch2, cold_blocks[0]);

        // Semi-cold region: plausible but speedup-irrelevant code
        // (bookkeeping over the out array) executed once per
        // coldPeriod iterations.
        for (unsigned c = 0; c < spec.coldBlocks; ++c) {
            b.setInsertPoint(cold_blocks[c]);
            int64_t cold_base =
                static_cast<int64_t>(kOutBytes / 2 + c * 256);
            b.movi(kScrT, static_cast<int64_t>(c + 1));
            for (unsigned j = 0; j + 2 < spec.coldBlockInsts; ++j) {
                switch (j % 8) {
                  case 0:
                    b.load(kScrV0, kRegOutBase,
                           cold_base + (j % 16) * 8);
                    break;
                  case 3:
                    b.add(kScrT, kScrT, kScrV0);
                    break;
                  case 5:
                    b.store(kRegOutBase, cold_base + 128 + (j % 8) * 8,
                            kScrT);
                    break;
                  case 7:
                    b.shri(kScrV0, kScrT, 3);
                    break;
                  default:
                    b.op2i(j % 2 ? Opcode::XOR : Opcode::ADD, kScrT,
                           kScrT, static_cast<int64_t>(j * 7 + 1));
                    break;
                }
            }
            b.jmp(c + 1 < spec.coldBlocks ? cold_blocks[c + 1]
                                          : latch2);
        }
    } else {
        b.jmp(latch2);
    }

    b.setInsertPoint(latch2);
    b.cmp(Opcode::CMPLT, kScrT, kRegI, kRegN);
    b.br(kScrT, a_blocks[0], exit);

    b.setInsertPoint(exit);
    // Publish the accumulators so they are observably live.
    b.store(kRegOutBase, static_cast<int64_t>(kOutBytes - 8), kRegAccI);
    b.store(kRegOutBase, static_cast<int64_t>(kOutBytes - 16),
            kRegAccF);
    b.halt();

    out.firstColdBlock =
        spec.coldBlocks > 0 ? cold_blocks[0] : kNoBlock;

    std::string err = fn.verify();
    vg_assert(err.empty(), "kernel '%s' invalid: %s", spec.name,
              err.c_str());
    return out;
}

BuiltKernel
buildKernel(const BenchmarkSpec &spec, uint64_t input_seed)
{
    KernelCode code = buildKernelCode(spec);
    return {std::move(code.fn),
            std::make_unique<Memory>(buildKernelMemory(spec, input_seed)),
            code.firstColdBlock};
}

} // namespace vanguard
