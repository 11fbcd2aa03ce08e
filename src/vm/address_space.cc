#include "vm/address_space.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "resilience/serial.hh"

#include <algorithm>

#include "common/log.hh"

namespace ccsim::vm {

AddressSpace::RegionSplit
AddressSpace::splitRegion(Addr region_base_line, Addr region_lines)
{
    std::uint64_t region_bytes = region_lines * kLineBytes;
    auto pages = static_cast<std::uint64_t>(
        double(region_bytes / PageTable::kTableBytes) * kPtPoolFraction);
    RegionSplit s;
    s.ptPages = pages ? pages : 1;
    std::uint64_t pt_lines = s.ptPages * PageTable::kLinesPerTable;
    s.ptBaseLine = region_base_line + region_lines - pt_lines;
    s.dataLines = region_lines - pt_lines;
    return s;
}

AddressSpace::AddressSpace(const VmConfig &config, int asid,
                           Addr region_base_line, Addr region_lines)
    : AddressSpace(config, asid, region_base_line,
                   splitRegion(region_base_line, region_lines))
{}

AddressSpace::AddressSpace(const VmConfig &config, int asid,
                           Addr region_base_line, const RegionSplit &split)
    : asid_(static_cast<std::uint32_t>(asid)),
      remapPeriod_(config.mp.enabled() ? config.mp.remapPeriod : 0),
      dataBaseLine_(region_base_line),
      dataFrames_(split.dataLines /
                  (static_cast<Addr>(config.effectivePageBytes()) /
                   kLineBytes)),
      alloc_(config.alloc, dataFrames_ ? dataFrames_ : 1, kFragSeed,
             config.fragDegree, asid, config.aging),
      pageTable_(config.walkLevels(), split.ptBaseLine, split.ptPages)
{
    CCSIM_ASSERT(dataFrames_ > 0, "region too small for a data frame");
}

AddressSpace::MapOutcome
AddressSpace::mapPage(Addr vpn, CpuCycle now)
{
    MapOutcome out;
    auto it = pageMap_.find(vpn);
    if (it != pageMap_.end()) {
        out.ppn = it->second;
        return out;
    }
    out.firstTouch = true;
    // Remap schedule: reclaim the oldest mapping's frame for this page
    // (an OS recycling a cold page under memory pressure); the victim
    // translation must be shot down everywhere it may be cached.
    if (remapPeriod_ > 0 && !mapOrder_.empty() &&
        ++touchesSinceRemap_ >= remapPeriod_) {
        touchesSinceRemap_ = 0;
        Addr victim = mapOrder_.front();
        mapOrder_.pop_front();
        auto vit = pageMap_.find(victim);
        CCSIM_ASSERT(vit != pageMap_.end(), "remap victim not mapped");
        std::uint64_t frame = vit->second;
        pageMap_.erase(vit);
        pageMap_.emplace(vpn, frame);
        mapOrder_.push_back(vpn);
        ++remaps_;
        out.ppn = frame;
        out.remapped = true;
        out.victimVpn = victim;
        return out;
    }
    std::uint64_t frame = alloc_.frameForAt(touchCount_++, now);
    pageMap_.emplace(vpn, frame);
    if (remapPeriod_ > 0)
        mapOrder_.push_back(vpn);
    out.ppn = frame;
    return out;
}

bool
AddressSpace::lookup(Addr vpn, std::uint64_t &ppn) const
{
    auto it = pageMap_.find(vpn);
    if (it == pageMap_.end())
        return false;
    ppn = it->second;
    return true;
}


void
AddressSpace::saveState(resilience::SnapshotWriter &w) const
{
    alloc_.saveState(w);
    pageTable_.saveState(w);
    std::vector<std::pair<Addr, std::uint64_t>> sorted(pageMap_.begin(),
                                                       pageMap_.end());
    std::sort(sorted.begin(), sorted.end());
    w.putVec(sorted);
    w.putDeque(mapOrder_);
    w.put(touchCount_);
    w.put(touchesSinceRemap_);
    w.put(remaps_);
}

void
AddressSpace::loadState(resilience::SnapshotReader &r)
{
    alloc_.loadState(r);
    pageTable_.loadState(r);
    std::vector<std::pair<Addr, std::uint64_t>> sorted;
    r.getVec(sorted);
    pageMap_.clear();
    pageMap_.insert(sorted.begin(), sorted.end());
    r.getDeque(mapOrder_);
    r.get(touchCount_);
    r.get(touchesSinceRemap_);
    r.get(remaps_);
}

} // namespace ccsim::vm
