#include "mem/mshr.hh"

#include <utility>

namespace nurapid {

MshrFile::MshrFile(std::uint32_t entries, std::uint32_t block_bytes)
    : numEntries(entries), blockBytes(block_bytes), statGroup("mshr")
{
    fatal_if(entries == 0, "MSHR file needs at least one entry");
    fatal_if(entries > kMaxEntries,
             "MSHR file of %u entries exceeds the cap of %u", entries,
             kMaxEntries);
    fatal_if(!isPowerOf2(block_bytes), "MSHR block size not a power of 2");
    statGroup.addCounter("allocations", statAllocations);
    statGroup.addCounter("merges", statMerges);
    statGroup.addCounter("full_stalls", statFullStalls);
}

bool
MshrFile::audit(AuditSink &sink) const
{
    const auto report = [&](const char *invariant, std::string detail,
                            std::uint32_t slot) {
        sink.violation({"mshr", invariant, std::move(detail),
                        AuditViolation::kNoIndex, slot,
                        AuditViolation::kNoIndex, AuditViolation::kNoIndex});
    };

    if (numLive > numEntries) {
        report("live-count",
               strprintf("%u live entries in a %u-entry file", numLive,
                         numEntries),
               AuditViolation::kNoIndex);
        return false;
    }

    bool clean = true;
    Cycle earliest = kNeverCycle;
    for (std::uint32_t i = 0; i < numLive; ++i) {
        earliest = std::min(earliest, readyCycles[i]);
        for (std::uint32_t j = i + 1; j < numLive; ++j) {
            if (blocks[j] == blocks[i]) {
                clean = false;
                report("distinct-blocks",
                       strprintf("block %#llx also in slot %u",
                                 static_cast<unsigned long long>(blocks[i]),
                                 j),
                       i);
            }
        }
    }
    if (minReady != earliest) {
        clean = false;
        report("min-ready",
               strprintf("cached earliest fill %llu, live minimum %llu",
                         static_cast<unsigned long long>(minReady),
                         static_cast<unsigned long long>(earliest)),
               AuditViolation::kNoIndex);
    }
    return clean;
}

} // namespace nurapid
