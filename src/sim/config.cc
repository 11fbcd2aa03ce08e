#include "sim/config.hh"

#include "common/log.hh"
#include "resilience/error.hh"

namespace ccsim::sim {

const char *
schemeName(Scheme scheme)
{
    switch (scheme) {
      case Scheme::Baseline:
        return "Baseline";
      case Scheme::ChargeCache:
        return "ChargeCache";
      case Scheme::Nuat:
        return "NUAT";
      case Scheme::ChargeCacheNuat:
        return "ChargeCache+NUAT";
      case Scheme::LlDram:
        return "LL-DRAM";
    }
    return "?";
}

const char *
kernelModeName(KernelMode mode)
{
    switch (mode) {
      case KernelMode::Calendar:
        return "calendar";
      case KernelMode::PerCycle:
        return "per-cycle";
    }
    return "?";
}

SimConfig
SimConfig::singleCore()
{
    SimConfig cfg;
    cfg.nCores = 1;
    cfg.channels = 1;
    cfg.ctrl.rowPolicy = ctrl::RowPolicy::Open;
    cfg.finalizeChargeCache();
    return cfg;
}

SimConfig
SimConfig::eightCore()
{
    SimConfig cfg;
    cfg.nCores = 8;
    cfg.channels = 2;
    cfg.ctrl.rowPolicy = ctrl::RowPolicy::Closed;
    cfg.finalizeChargeCache();
    return cfg;
}

dram::DramSpec
SimConfig::buildSpec() const
{
    if (dramStandard == "DDR3-1600")
        return dram::DramSpec::ddr3_1600(channels);
    if (dramStandard == "DDR4-2400")
        return dram::DramSpec::ddr4_2400(channels);
    throw resilience::SimError(resilience::ErrorKind::InvalidConfig,
                               "unknown DRAM standard '" + dramStandard +
                                   "'");
}

void
SimConfig::finalizeChargeCache()
{
    dram::DramSpec spec = buildSpec();
    cc.durationCycles = spec.timing.msToCycles(ccDurationMs);
    if (ccUseTimingModel) {
        circuit::TimingModel model;
        circuit::DerivedTimings d =
            model.timingsForDuration(ccDurationMs, spec.timing);
        cc.trcdReduced = d.trcdCycles;
        cc.trasReduced = d.trasCycles;
    }
}

chargecache::NuatParams
makeNuatParams(const circuit::TimingModel &model,
               const dram::DramTiming &timing,
               const std::vector<double> &edges_ms)
{
    chargecache::NuatParams params;
    for (double edge : edges_ms) {
        circuit::DerivedTimings d = model.timingsForDuration(edge, timing);
        chargecache::NuatBin bin;
        bin.maxAgeCycles = timing.msToCycles(edge);
        bin.trcd = d.trcdCycles;
        bin.tras = d.trasCycles;
        params.bins.push_back(bin);
    }
    return params;
}

} // namespace ccsim::sim
