#include "nuca/snuca.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace nurapid {

SNucaCache::SNucaCache(const SramMacroModel &model, const Params &params)
    : p(params),
      times(makeDNucaTiming(model, p.capacity_bytes, p.rows, p.cols,
                            p.block_bytes)),
      bankFree(std::size_t{p.rows} * p.cols, 0),
      mem(p.memory), statGroup(p.name), regionHist(p.rows)
{
    const std::uint64_t bank_bytes =
        p.capacity_bytes / (std::uint64_t{p.rows} * p.cols);
    fatal_if(bank_bytes < p.assoc * p.block_bytes,
             "S-NUCA banks too small for the configured associativity");
    banks.reserve(std::size_t{p.rows} * p.cols);
    for (std::uint32_t b = 0; b < p.rows * p.cols; ++b) {
        banks.emplace_back(CacheOrg{
            strprintf("%s.bank%u", p.name.c_str(), b), bank_bytes,
            p.assoc, p.block_bytes});
    }

    statGroup.addCounter("demand_accesses", cnt.demandAccesses);
    statGroup.addCounter("writeback_accesses", cnt.writebackAccesses);
    statGroup.addCounter("hits", cnt.hits);
    statGroup.addCounter("misses", cnt.misses);
    statGroup.addCounter("bank_wait_cycles", cnt.bankWaitCycles);
}

std::uint32_t
SNucaCache::bankOf(Addr block) const
{
    // Low block-address bits select the bank (row-major), spreading
    // consecutive blocks across banks — the standard S-NUCA mapping.
    return static_cast<std::uint32_t>(
        (block / p.block_bytes) % (p.rows * p.cols));
}

LowerMemory::Result
SNucaCache::access(Addr addr, AccessType type, Cycle now)
{
    const Addr block = blockAlign(addr, p.block_bytes);
    const bool is_writeback = type == AccessType::Writeback;
    const bool is_write = type == AccessType::Write || is_writeback;

    if (is_writeback)
        ++cnt.writebackAccesses;
    else
        ++cnt.demandAccesses;

    const std::uint32_t bank_idx = bankOf(block);
    const std::uint32_t row = bank_idx / p.cols;
    const std::uint32_t col = bank_idx % p.cols;

    // Bank occupancy (S-NUCA is multibanked like D-NUCA).
    Cycle &free = bankFree[bank_idx];
    const Cycle start = std::max(now, free);
    cnt.bankWaitCycles += start - now;
    free = start + times.bank_busy;

    cacheEnergy.chargeData(row, times.bank(row, col).access_nj);

    Result result;
    if (obsSink && is_writeback) [[unlikely]]
        obsSink->writeback(now, block);
    auto r = banks[bank_idx].access(block, is_write);
    if (r.evicted) {
        recordEviction(result, r.evicted_addr, r.evicted_dirty, now);
        if (r.evicted_dirty)
            mem.write(p.block_bytes);
    }

    const auto wait = static_cast<Cycles>(start - now);
    if (r.hit) {
        if (!is_writeback) {
            ++cnt.hits;
            regionHist.sample(row);
        }
        result.hit = true;
        result.latency =
            is_writeback ? 0 : wait + times.bank(row, col).latency;
        if (obsSink && !is_writeback) [[unlikely]]
            obsSink->hit(now, block, row, result.latency);
    } else {
        if (!is_writeback)
            ++cnt.misses;
        const Cycles mem_lat = mem.read(p.block_bytes);
        cacheEnergy.chargeData(row, times.bank(row, col).access_nj);  // fill write
        result.hit = false;
        // The miss is known once the addressed bank's tags reply.
        result.latency = is_writeback
            ? 0
            : wait + times.bank(row, col).latency + mem_lat;
        if (obsSink && !is_writeback) [[unlikely]]
            obsSink->miss(now, block, result.latency);
    }
    return result;
}

EnergyNJ
SNucaCache::dynamicEnergyNJ() const
{
    return cacheEnergy.total_nj + mem.dynamicEnergyNJ();
}

void
SNucaCache::regionOccupancy(std::vector<std::uint64_t> &out) const
{
    out.assign(p.rows, 0);
    for (std::uint32_t b = 0; b < banks.size(); ++b)
        out[b / p.cols] += banks[b].validCount();
}

void
SNucaCache::forEachResident(const ResidentFn &fn) const
{
    for (const auto &b : banks)
        b.forEachValid(fn);
}

bool
SNucaCache::audit(AuditSink &sink) const
{
    bool clean = true;
    for (std::uint32_t b = 0; b < banks.size(); ++b) {
        if (!banks[b].audit(sink))
            clean = false;
        // Static placement: every block in bank b must map there.
        banks[b].forEachValid([&](Addr addr, bool) {
            if (bankOf(addr) != b) {
                clean = false;
                sink.violation({p.name, "bank-misplacement",
                                strprintf("block %#llx in bank %u, maps "
                                          "to bank %u",
                                          static_cast<unsigned long long>(
                                              addr),
                                          b, bankOf(addr)),
                                AuditViolation::kNoIndex,
                                AuditViolation::kNoIndex,
                                AuditViolation::kNoIndex,
                                AuditViolation::kNoIndex});
            }
        });
    }
    return clean;
}

void
SNucaCache::resetStats()
{
    statGroup.resetAll();
    for (auto &b : banks)
        b.stats().resetAll();
    mem.resetStats();
    regionHist.reset();
    cacheEnergy.reset();
}

} // namespace nurapid
