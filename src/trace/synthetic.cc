#include "trace/synthetic.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace nurapid {

namespace {
/** Each layer gets its own gigabyte-aligned slice of address space. */
constexpr Addr kLayerSpan = Addr{1} << 30;
constexpr Addr kColdRegion = 0xc0000000ull;
constexpr Addr kCodeRegion = 0xf0000000ull;
constexpr std::uint32_t kWordBytes = 8;
/** Set-coverage period of the 8 MB / 8-way / 128 B tag array. */
constexpr Addr kSetCoveragePeriod = Addr{1} << 20;
} // namespace

SyntheticTrace::SyntheticTrace(const WorkloadProfile &profile,
                               std::uint64_t seed_mix)
    : prof(profile), seedMix(seed_mix),
      rng(profile.seed * 0x9e3779b97f4a7c15ULL + seed_mix + 1)
{
    fatal_if(prof.mem_refs_per_kinst <= 0, "%s: no memory references",
             prof.name.c_str());
    // Gaps are drawn below 1.5x the mean and stored as 16-bit inst_gap.
    fatal_if(1500.0 / prof.mem_refs_per_kinst >= 65536.0,
             "%s: mem_refs_per_kinst %g gives instruction gaps past 16 "
             "bits (it must exceed %g)",
             prof.name.c_str(), prof.mem_refs_per_kinst, 1500.0 / 65536.0);
    double total = 0;
    for (const auto &l : prof.layers) {
        fatal_if(l.bytes == 0 || l.weight < 0 || l.segments == 0,
                 "%s: malformed working-set layer", prof.name.c_str());
        total += l.weight;
    }
    fatal_if(total > 1.0 + 1e-9, "%s: layer weights exceed 1",
             prof.name.c_str());
    buildLayers();
    reset();
}

void
SyntheticTrace::buildLayers()
{
    layers.clear();
    cumWeights.clear();
    double cum = 0;
    Rng layout_rng(prof.seed + 17);
    for (std::size_t i = 0; i < prof.layers.size(); ++i) {
        const WorkingSetLayer &spec = prof.layers[i];
        LayerState state;
        state.segment_bytes =
            roundUp(spec.bytes / spec.segments, 128);
        const Addr region = (Addr{2} + i) * kLayerSpan;
        // Scatter segments through the layer's region at block-aligned
        // offsets: their set-index footprints overlap unevenly, which
        // creates mildly hot sets...
        const Addr slots = kLayerSpan / state.segment_bytes;
        const std::uint32_t colliding =
            std::min(spec.colliding_segments, spec.segments);
        for (std::uint32_t s = 0; s + colliding < spec.segments; ++s) {
            const Addr slot = layout_rng.below64(slots);
            state.segment_bases.push_back(
                region + slot * state.segment_bytes);
        }
        // ...while the colliding segments sit at bases congruent modulo
        // the set-coverage period (like page-aligned arrays), stacking
        // several simultaneously-hot blocks into the same sets.
        const Addr anchor =
            region + layout_rng.below64(slots / 2) * state.segment_bytes;
        for (std::uint32_t s = 0; s < colliding; ++s) {
            state.segment_bases.push_back(
                anchor + (Addr{s} + 1) * kSetCoveragePeriod);
        }
        state.initial_bases = state.segment_bases;
        layers.push_back(std::move(state));
        cum += spec.weight;
        cumWeights.push_back(cum);
    }
    coldBase = kColdRegion;

    // Static branch population: 256 patterned + a hard minority.
    branches.clear();
    Rng branch_rng(prof.seed + 101);
    const std::uint32_t n_static = 320;
    for (std::uint32_t b = 0; b < n_static; ++b) {
        StaticBranch sb;
        sb.pc = 0x40000000u + b * 4;
        sb.hard = branch_rng.uniform() < prof.hard_branch_frac;
        if (!sb.hard) {
            // A loop-like repeating pattern of length 2..9, mostly
            // taken: e.g. TTTTN for an unrolled inner loop.
            sb.length = 2 + branch_rng.below(8);
            sb.pattern = (1u << (sb.length - 1)) - 1;  // taken*(n-1), not
            if (branch_rng.chance(0.3))
                sb.pattern = branch_rng.next() & ((1u << sb.length) - 1);
        }
        branches.push_back(sb);
    }
}

void
SyntheticTrace::reset()
{
    rng.reseed(prof.seed * 0x9e3779b97f4a7c15ULL + seedMix + 1);
    chaseRemaining = 0;
    chaseLayer = 0;
    deepCount = 0;
    for (LayerState &layer : layers) {
        layer.segment_bases = layer.initial_bases;
        layer.cursor = layer.segment_bases.front();
    }
    coldCursor = coldBase;
    codeCursor = kCodeRegion;
    for (auto &b : branches)
        b.pos = 0;

    ifetchProb = prof.ifetch_refs_per_kinst / prof.mem_refs_per_kinst;
    branchProb = prof.branches_per_kinst / prof.mem_refs_per_kinst;
    meanGap = 1000.0 / prof.mem_refs_per_kinst;
}

Addr
SyntheticTrace::pickAddress(LayerState &layer)
{
    if (rng.uniform() < prof.seq_frac) {
        // Continue the sequential walk; occasionally jump to a fresh
        // segment offset so the walk covers the whole layer.
        layer.cursor += kWordBytes;
        const Addr seg = (layer.cursor / layer.segment_bytes) *
            layer.segment_bytes;
        const bool off_end =
            std::find(layer.segment_bases.begin(),
                      layer.segment_bases.end(),
                      seg) == layer.segment_bases.end();
        if (off_end || rng.chance(0.002)) {
            const std::uint32_t s =
                rng.below(static_cast<std::uint32_t>(
                    layer.segment_bases.size()));
            layer.cursor = layer.segment_bases[s] +
                rng.below64(layer.segment_bytes / kWordBytes) *
                    kWordBytes;
        }
        return layer.cursor;
    }
    const std::uint32_t s = rng.below(
        static_cast<std::uint32_t>(layer.segment_bases.size()));
    return layer.segment_bases[s] +
        rng.below64(layer.segment_bytes / kWordBytes) * kWordBytes;
}

Addr
SyntheticTrace::coldAddress()
{
    if (rng.uniform() < prof.seq_frac) {
        coldCursor += kWordBytes;
        if (coldCursor >= coldBase + prof.footprint_bytes)
            coldCursor = coldBase;
        return coldCursor;
    }
    return coldBase +
        rng.below64(prof.footprint_bytes / kWordBytes) * kWordBytes;
}

void
SyntheticTrace::emitBranch(TraceRecord &record)
{
    StaticBranch &b = branches[rng.below(
        static_cast<std::uint32_t>(branches.size()))];
    record.has_branch = true;
    record.branch_pc = b.pc;
    if (b.hard) {
        record.branch_taken = rng.chance(prof.hard_branch_bias);
    } else {
        record.branch_taken = (b.pattern >> b.pos) & 1u;
        b.pos = (b.pos + 1) % b.length;
    }
}

bool
SyntheticTrace::next(TraceRecord &record)
{
    record = TraceRecord{};


    // Continue an in-progress pointer-chase burst: back-to-back loads
    // whose addresses each depend on the previous one. These are what
    // expose the L2's *hit* latency to the core.
    if (chaseRemaining > 0) {
        --chaseRemaining;
        record.op = TraceOp::Load;
        record.depends_on_prev = true;
        record.latency_critical = true;
        record.inst_gap = static_cast<std::uint16_t>(1 + rng.below(4));
        record.addr = chaseLayer < layers.size()
            ? pickAddress(layers[chaseLayer])
            : coldAddress();
        return true;
    }

    // Instruction gap: uniform around the profile's mean rate.
    const double gap = meanGap * (0.5 + rng.uniform());
    record.inst_gap = static_cast<std::uint16_t>(gap);

    if (rng.uniform() < branchProb)
        emitBranch(record);

    if (ifetchProb > 0 && rng.uniform() < ifetchProb) {
        record.op = TraceOp::Ifetch;
        // Mostly-sequential code walk with occasional far jumps.
        codeCursor += 16;
        if (codeCursor >= kCodeRegion + prof.code_bytes ||
            rng.chance(0.02)) {
            codeCursor = kCodeRegion +
                rng.below64(prof.code_bytes / 16) * 16;
        }
        record.addr = codeCursor;
        return true;
    }

    record.op = rng.uniform() < prof.store_frac ? TraceOp::Store
                                                : TraceOp::Load;
    const double u = rng.uniform();
    std::size_t layer = layers.size();
    for (std::size_t i = 0; i < cumWeights.size(); ++i) {
        if (u < cumWeights[i]) {
            layer = i;
            break;
        }
    }
    record.addr = layer < layers.size() ? pickAddress(layers[layer])
                                        : coldAddress();
    // Working-set drift: after enough deep references, slide one
    // hot-layer segment forward by an eighth of its size — the
    // working set creeps through memory as the program's phases
    // advance. Old blocks age out and freshly mapped ones miss and
    // stream back in, so blocks have finite hot lifetimes (this is
    // what makes D-NUCA's slow initial placement expensive: a new
    // block must earn its way up the bank rows hit by hit).
    if (layer != 0 && prof.drift_period &&
        ++deepCount % prof.drift_period == 0 && layers.size() > 1) {
        LayerState &hot = layers[1];
        const std::uint32_t si = rng.below(
            static_cast<std::uint32_t>(hot.segment_bases.size()));
        hot.segment_bases[si] += hot.segment_bytes / 8;
        // Wrap within the layer's region to keep addresses bounded.
        const Addr region_end = Addr{4} * kLayerSpan;
        if (hot.segment_bases[si] + hot.segment_bytes >= region_end)
            hot.segment_bases[si] -= kLayerSpan / 2;
    }

    // Pointer-chase dependences live in the L2-resident layers: a walk
    // over a linked structure produces a burst of loads whose addresses
    // each come from the previous deep load.
    if (record.op == TraceOp::Load && layer != 0) {
        if (rng.uniform() < prof.dep_frac) {
            chaseLayer = layer;
            chaseRemaining = 2 + rng.below(5);
        }
        record.latency_critical =
            rng.uniform() < prof.critical_frac;
    }
    return true;
}

} // namespace nurapid
