#include "sim/system.hh"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "common/log.hh"
#include "common/random.hh"
#include "mcpat_lite/overhead.hh"
#include "resilience/checkpoint.hh"
#include "resilience/error.hh"
#include "resilience/serial.hh"
#include "workloads/profiles.hh"

namespace ccsim::sim {

namespace {

/** Runaway guard: a run past this CPU cycle aborts. */
constexpr CpuCycle kMaxCpuCycles = 5000000000ull;

// Core/channel counts come from user configuration (sweep files, env,
// CLI), not from internal invariants — report them as structured
// errors a sweep reports instead of aborting.
void
validateCounts(const SimConfig &config, std::size_t sources,
               const char *what)
{
    using resilience::ErrorKind;
    using resilience::SimError;
    if (config.nCores <= 0)
        throw SimError(ErrorKind::InvalidConfig,
                       "nCores must be positive");
    if (config.nCores > mem::Llc::kMaxCores)
        throw SimError(ErrorKind::InvalidConfig,
                       "nCores must be at most " +
                           std::to_string(mem::Llc::kMaxCores) +
                           " (the shared LLC's per-core tables)");
    if (config.channels <= 0)
        throw SimError(ErrorKind::InvalidConfig,
                       "channels must be positive");
    if (static_cast<int>(sources) != config.nCores)
        throw SimError(ErrorKind::InvalidConfig,
                       std::string("need one ") + what + " per core (" +
                           std::to_string(sources) + " for " +
                           std::to_string(config.nCores) + " cores)");
}

} // namespace

System::System(const SimConfig &config,
               const std::vector<std::string> &workloads)
    : config_(config), spec_(config.buildSpec()), workloadNames_(workloads)
{
    validateCounts(config_, workloads.size(), "workload");
    mapper_ = std::make_unique<dram::AddressMapper>(spec_.org,
                                                    config_.mapping);
    Addr capacity = mapper_->numLines();
    Addr region = capacity / static_cast<Addr>(config_.nCores);
    std::vector<cpu::TraceSource *> traces;
    for (int i = 0; i < config_.nCores; ++i) {
        const auto &profile = workloads::profileByName(workloads[i]);
        ownedTraces_.push_back(std::make_unique<workloads::SyntheticTrace>(
            profile, config_.seed + 0x9E37 * (i + 1), region * i,
            capacity));
        traces.push_back(ownedTraces_.back().get());
    }
    build(traces);
}

System::System(const SimConfig &config,
               const std::vector<cpu::TraceSource *> &traces)
    : config_(config), spec_(config.buildSpec())
{
    validateCounts(config_, traces.size(), "trace");
    mapper_ = std::make_unique<dram::AddressMapper>(spec_.org,
                                                    config_.mapping);
    build(traces);
}

System::~System() = default;

void
System::makeProviders()
{
    using namespace chargecache;
    circuit::TimingModel model;
    for (int ch = 0; ch < config_.channels; ++ch) {
        std::unique_ptr<LatencyProvider> p;
        switch (config_.scheme) {
          case Scheme::Baseline:
            p = std::make_unique<StandardProvider>(spec_.timing);
            break;
          case Scheme::ChargeCache:
            p = std::make_unique<ChargeCacheProvider>(
                spec_.timing, config_.cc, config_.nCores);
            break;
          case Scheme::Nuat:
            p = std::make_unique<NuatProvider>(
                spec_.timing,
                makeNuatParams(model, spec_.timing, kNuatBinEdgesMs),
                *refresh_[ch]);
            break;
          case Scheme::ChargeCacheNuat: {
            auto cc = std::make_unique<ChargeCacheProvider>(
                spec_.timing, config_.cc, config_.nCores);
            auto nuat = std::make_unique<NuatProvider>(
                spec_.timing,
                makeNuatParams(model, spec_.timing, kNuatBinEdgesMs),
                *refresh_[ch]);
            p = std::make_unique<CombinedProvider>(std::move(cc),
                                                   std::move(nuat));
            break;
          }
          case Scheme::LlDram:
            p = std::make_unique<LowLatencyDramProvider>(
                config_.cc.trcdReduced, config_.cc.trasReduced);
            break;
        }
        providers_.push_back(std::move(p));
    }
}

void
System::build(const std::vector<cpu::TraceSource *> &traces)
{
    traceRefs_ = traces; // Retained for snapshot serialization.

    // Per-channel refresh schedulers first (NUAT is built against them).
    dram::DramSpec chan_spec = spec_;
    chan_spec.org.channels = 1; // Controllers are per-channel.
    for (int ch = 0; ch < config_.channels; ++ch)
        refresh_.push_back(
            std::make_unique<ctrl::RefreshScheduler>(chan_spec));

    makeProviders();

    // ChargeCache structure power (Section 6.3), split per channel.
    double cc_static_mw = 0.0;
    if (config_.scheme == Scheme::ChargeCache ||
        config_.scheme == Scheme::ChargeCacheNuat) {
        mcpat_lite::ChargeCacheGeometry geo;
        geo.cores = config_.nCores;
        geo.channels = config_.channels;
        geo.entries = config_.cc.table.entries;
        geo.lruBits = 1;
        cc_static_mw =
            mcpat_lite::estimateOverhead(geo, spec_.org).powerMw /
            config_.channels;
    }

    const ctrl::Scheduler scheduler =
        config_.kernel == KernelMode::PerCycle ? ctrl::Scheduler::Reference
        : config_.kernelParanoid ? ctrl::Scheduler::BankListsChecked
                                 : ctrl::Scheduler::BankLists;
    for (int ch = 0; ch < config_.channels; ++ch) {
        controllers_.push_back(std::make_unique<ctrl::MemoryController>(
            chan_spec, config_.ctrl, *providers_[ch], *refresh_[ch], ch,
            scheduler));
        energy_.push_back(std::make_unique<energy::EnergyModel>(
            chan_spec, energy::IddProfile::micronDdr3_1600_4Gb(),
            cc_static_mw));
        controllers_.back()->addListener(energy_.back().get());
    }

    std::vector<ctrl::MemoryController *> channels;
    for (auto &mc : controllers_)
        channels.push_back(mc.get());
    llc_ = std::make_unique<mem::Llc>(
        config_.llc, *mapper_, std::move(channels),
        [this](int core, std::uint64_t token) {
            calNoteWake(core);
            cores_[core]->onMissComplete(token);
        });
    if (config_.kernel != KernelMode::PerCycle)
        llc_->setWakeCallback([this](int core) {
            calNoteWake(core);
            cores_[core]->externalWake();
        });

    // MMUs. Legacy mode: each core owns one immortal address space
    // over its own physical region (the same disjoint-region split the
    // workload generators use), so first-touch allocation order is a
    // purely per-core property and kernel-invariant. Multi-process
    // mode: the System owns vm.mp.processes global address spaces —
    // one region each — and every core's Mmu references all of them;
    // the seed-derived schedule decides which one a core runs.
    // First-touch order then interleaves cores, but cores advance in
    // id order in every kernel, so it stays kernel-invariant.
    if (config_.vm.enable) {
        Addr capacity = mapper_->numLines();
        if (config_.vm.mp.enabled()) {
            const int n = config_.vm.mp.processes;
            Addr region = capacity / static_cast<Addr>(n);
            std::vector<vm::AddressSpace *> ptrs;
            for (int s = 0; s < n; ++s) {
                spaces_.push_back(std::make_unique<vm::AddressSpace>(
                    config_.vm, s, region * s, region));
                ptrs.push_back(spaces_.back().get());
            }
            for (int i = 0; i < config_.nCores; ++i)
                mmus_.push_back(std::make_unique<vm::Mmu>(
                    config_.vm, i, ptrs, config_.seed));
        } else {
            Addr region = capacity / static_cast<Addr>(config_.nCores);
            for (int i = 0; i < config_.nCores; ++i)
                mmus_.push_back(std::make_unique<vm::Mmu>(
                    config_.vm, i, region * i, region));
        }
    }

    for (int i = 0; i < config_.nCores; ++i)
        cores_.push_back(std::make_unique<cpu::Core>(
            i, config_.targetInsts, *traces[i], *llc_,
            mmus_.empty() ? nullptr : mmus_[i].get()));
    if (config_.vm.mp.enabled())
        for (auto &core : cores_)
            core->setShootdownHook(
                [this](int initiator, std::uint32_t asid, Addr vpn,
                       CpuCycle now) {
                    shootdownBroadcast(initiator, asid, vpn, now);
                });

    if (config_.obs.enable) {
        tele_ = std::make_unique<obs::Telemetry>(
            config_.obs, config_.channels, config_.nCores,
            config_.cpuRatio, spec_.timing.tRFC);
        for (int ch = 0; ch < config_.channels; ++ch) {
            if (ctrl::CommandListener *t = tele_->bankTracer(ch))
                controllers_[ch]->addListener(t);
            controllers_[ch]->setObsHists(tele_->ctrlHists(ch));
        }
        for (int i = 0; i < config_.nCores; ++i)
            cores_[i]->setObsPtwHist(tele_->ptwHist(i));
        registerObsProbes();
    }
}

void
System::registerObsProbes()
{
    obs::TimeSeries &ts = tele_->series();
    for (int ch = 0; ch < config_.channels; ++ch) {
        const std::string p = "ch" + std::to_string(ch) + ".";
        const ctrl::CtrlStats &s = controllers_[ch]->stats();
        ts.addDelta(p + "reads", &s.reads);
        ts.addDelta(p + "writes", &s.writes);
        ts.addDelta(p + "rowHits", &s.rowHits);
        ts.addRatio(p + "hcracHitRate",
                    &providers_[ch]->reducedActivations,
                    &providers_[ch]->activations);
        ctrl::MemoryController *mc = controllers_[ch].get();
        ts.addGauge(p + "queueDepth",
                    [mc] { return double(mc->queuedRequests()); });
    }
    for (int i = 0; i < config_.nCores; ++i) {
        const std::string p = "core" + std::to_string(i) + ".";
        const cpu::CoreStats &s = cores_[i]->stats();
        ts.addRate(p + "ipc", &s.retired);
        ts.addDelta(p + "xlatStalls", &s.xlatStallCycles);
        ts.addDelta(p + "shootdownStalls", &s.shootdownStallCycles);
    }
    ts.addRatio("llc.hitRate", &llc_->stats().hits,
                &llc_->stats().accesses);
    ts.addDelta("llc.misses", &llc_->stats().misses);
}

void
System::shootdownBroadcast(int initiator, std::uint32_t asid, Addr vpn,
                           CpuCycle now)
{
    const CpuCycle until = now + config_.vm.mp.shootdownCycles;
    for (std::size_t j = 0; j < cores_.size(); ++j) {
        if (static_cast<int>(j) == initiator)
            continue;
        mmus_[j]->invalidateTranslation(asid, vpn);
        cores_[j]->beginShootdown(until);
        // Same wake surface an LLC completion uses: the calendar kernel
        // re-ticks the stalled core this cycle (ids past the initiator)
        // or next (ids before it) — exactly the per-cycle schedule.
        calNoteWake(static_cast<int>(j));
    }
}

ctrl::MemoryController &
System::controller(int channel)
{
    return *controllers_[channel];
}

chargecache::LatencyProvider &
System::provider(int channel)
{
    return *providers_[channel];
}

void
System::resetAllStats(CpuCycle now)
{
    for (auto &mc : controllers_)
        mc->resetStats();
    llc_->resetStats();
    for (auto &core : cores_)
        core->resetStats(now);
    for (auto &mmu : mmus_)
        mmu->resetStats();
    for (size_t ch = 0; ch < energy_.size(); ++ch)
        energy_[ch]->resetAt(controllers_[ch]->now());
}

/**
 * Forward-progress watchdog shared by the kernels: if no core retires
 * anything for kStallLimit CPU cycles, the system is deadlocked — dump
 * state and abort. Call checkAt(now) periodically.
 */
class System::StallWatchdog
{
  public:
    explicit StallWatchdog(System &sys) : sys_(sys) {}

    static constexpr CpuCycle kStallLimit = 10000000;

    void
    checkAt(CpuCycle now)
    {
        std::uint64_t retired = 0;
        for (const auto &core : sys_.cores_)
            retired += core->stats().retired;
        if (retired != lastRetiredSum_) {
            lastRetiredSum_ = retired;
            lastProgress_ = now;
            return;
        }
        if (now - lastProgress_ < kStallLimit)
            return;
        std::string dump;
        for (size_t ch = 0; ch < sys_.controllers_.size(); ++ch) {
            dump +=
                " ch" + std::to_string(ch) + "{queued=" +
                std::to_string(sys_.controllers_[ch]->queuedRequests()) +
                ",pending=" +
                std::to_string(sys_.controllers_[ch]->pendingReads()) + "}";
        }
        dump += " llc{quiesced=" +
                std::to_string(sys_.llc_->quiesced() ? 1 : 0) +
                ",blockedMshr=" +
                std::to_string(sys_.llc_->stats().blockedMshr) + "}";
        for (const auto &core : sys_.cores_)
            dump += " core" + std::to_string(core->id()) + "{retired=" +
                    std::to_string(core->stats().retired) + "}";
        CCSIM_PANIC("no forward progress for ", kStallLimit,
                    " cpu cycles at cycle ", now, ":", dump);
    }

  private:
    System &sys_;
    std::uint64_t lastRetiredSum_ = 0;
    CpuCycle lastProgress_ = 0;
};

SystemResult
System::run()
{
    // Fresh runs arm the sample grid at cycle 0; resumed runs carry
    // nextSampleAt in the snapshot (no gap, no duplicate).
    if (tele_ && !resume_ && tele_->nextSampleAt() == kNoCycle)
        tele_->scheduleFrom(0);
    if (config_.kernel == KernelMode::Calendar && !config_.kernelParanoid)
        return runCalendar();

    CpuCycle now = 0;
    bool warm = false;
    CpuCycle warm_end = 0;

    auto all_retired_at_least = [&](std::uint64_t n) {
        for (const auto &core : cores_)
            if (core->stats().retired < n)
                return false;
        return true;
    };

    StallWatchdog watchdog(*this);

    // ------------------------------------------------------------------
    // The PerCycle reference: tick every component every cycle, exactly
    // like the seed loop. It is the oracle the Calendar kernel must
    // match bit for bit (docs/performance.md).
    //
    // A paranoid Calendar run (kernelParanoid) runs this same schedule
    // with the calendar kernel shadowed: every tick the kernel would
    // elide still executes and is asserted quiescent, and the wake
    // queue is shadow-run and asserted to deliver every self-wake at
    // exactly the cycle this schedule needs it.
    const CpuCycle ratio = static_cast<CpuCycle>(config_.cpuRatio);
    const bool shadow = config_.kernel == KernelMode::Calendar;

    // Calendar shadow state: self-wake events posted at park time, the
    // per-cycle due set they resolve to, and the cores the calendar
    // kernel would have parked (whose ticks still execute here).
    WakeQueue shadow_wakes;
    std::vector<char> shadow_due(cores_.size(), 0);
    std::vector<int> shadow_due_list;
    std::vector<char> parked(cores_.size(), 0);

    CpuCycle next_progress_check = 65536;

    if (resume_) {
        // Resuming from a snapshot: continue from the saved run point
        // with every core awake. Snapshots settle parked cores to
        // `now`, so a core the calendar kernel had parked just takes
        // its next (non-progressing) tick here, exactly as in the
        // uninterrupted per-cycle run (docs/resilience.md).
        now = resume_->now;
        warm = resume_->warm;
        warm_end = resume_->warmEnd;
        next_progress_check = now + 65536;
        resume_.reset();
    }

    while (true) {
        // Sample before any checkpoint at the same cycle so a snapshot
        // taken now already carries this row (and the advanced
        // nextSampleAt), keeping resumed series gap- and
        // duplicate-free.
        if (obsSampleDue(now))
            tele_->takeSample(now);
        if (checkpointDue(now))
            fireCheckpoint(now, warm, warm_end);

        if (!warm && all_retired_at_least(config_.warmupInsts)) {
            warm = true;
            warm_end = now;
            resetAllStats(now);
            if (tele_)
                tele_->rebase();
        }
        if (warm) {
            bool done = true;
            for (const auto &core : cores_)
                if (!core->reachedTarget())
                    done = false;
            if (done)
                break;
        }

        if (shadow) {
            // Resolve the wake queue's deliveries for this cycle so the
            // unpark sites below can assert the calendar kernel would
            // have woken each self-scheduled core exactly now.
            for (int i : shadow_due_list)
                shadow_due[i] = 0;
            shadow_due_list.clear();
            shadow_wakes.drainUpTo(now, [&](int i) {
                shadow_due[i] = 1;
                shadow_due_list.push_back(i);
            });
        }

        if (now % ratio == 0) {
            for (auto &mc : controllers_) {
                // The calendar kernel ticks a controller only when its
                // horizon is due; an active tick must have been due.
                bool could = !shadow || mc->nextEventAt() <= mc->now();
                bool active = mc->tick();
                CCSIM_ASSERT(!active || could,
                             "controller horizon would have skipped "
                             "an active controller tick");
            }
            if (llc_->needsAnyDrain())
                llc_->tick();
        }

        for (size_t i = 0; i < cores_.size(); ++i) {
            cpu::Core &core = *cores_[i];
            if (parked[i]) {
                if (!core.wakePending() && core.nextEventAt() > now) {
                    // Still parked: the calendar kernel would elide
                    // this tick, so it must be a pure stall.
                    bool prog = core.tick(now);
                    CCSIM_ASSERT(!prog,
                                 "calendar kernel would have skipped a "
                                 "productive core tick");
                    continue;
                }
                if (!core.wakePending()) {
                    // Purely self-scheduled wake-up: the wake queue
                    // must have delivered this core's event at exactly
                    // this cycle.
                    CCSIM_ASSERT(core.nextEventAt() == now,
                                 "self-wake fired late for core ", i);
                    CCSIM_ASSERT(shadow_due[i],
                                 "wake queue missed the self-wake "
                                 "of core ",
                                 i, " at cycle ", now);
                }
                parked[i] = 0;
            }
            if (!core.tick(now) && shadow) {
                parked[i] = 1; // Elided from the next cycle on.
                CpuCycle e = core.nextEventAt();
                if (e != kNoCycle)
                    shadow_wakes.post(e, static_cast<int>(i));
            }
        }
        ++now;

        while (now >= next_progress_check) {
            watchdog.checkAt(now);
            next_progress_check += 65536;
            if (resilience::stopRequested()) {
                if (ckptHook_)
                    fireCheckpoint(now, warm, warm_end);
                throw resilience::SimError(
                    resilience::ErrorKind::Interrupted,
                    "stop signal received at cycle " +
                        std::to_string(now));
            }
        }
        if (now > kMaxCpuCycles)
            CCSIM_FATAL("simulation exceeded kMaxCpuCycles=",
                        kMaxCpuCycles,
                        "; workload cannot make progress?");
    }

    return collectResults(now, warm_end);
}

SystemResult
System::collectResults(CpuCycle now, CpuCycle warm_end)
{
    SystemResult res;
    res.cpuCycles = now - warm_end;
    for (const auto &core : cores_) {
        CpuCycle c = core->targetCycle() - warm_end;
        res.ipc.push_back(double(config_.targetInsts) / double(c ? c : 1));
    }

    std::uint64_t reduced = 0;
    for (auto &p : providers_) {
        res.activations += p->activations;
        reduced += p->reducedActivations;
    }
    res.providerHitRate =
        res.activations ? double(reduced) / res.activations : 0.0;

    chargecache::Hcrac::Stats hs;
    double unlimited_hits = 0, unlimited_lookups = 0;
    for (auto &p : providers_) {
        if (chargecache::ChargeCacheProvider *cc = p->chargeCacheView()) {
            auto s = cc->tableStats();
            hs.lookups += s.lookups;
            hs.hits += s.hits;
            unlimited_hits += cc->unlimitedHitRate() * s.lookups;
            unlimited_lookups += s.lookups;
        }
    }
    res.hcracHitRate = hs.lookups ? double(hs.hits) / hs.lookups : 0.0;
    res.unlimitedHitRate =
        unlimited_lookups ? unlimited_hits / unlimited_lookups : 0.0;

    for (auto &mc : controllers_) {
        const auto &s = mc->stats();
        res.ctrl.reads += s.reads;
        res.ctrl.writes += s.writes;
        res.ctrl.acts += s.acts;
        res.ctrl.pres += s.pres;
        res.ctrl.autoPres += s.autoPres;
        res.ctrl.refs += s.refs;
        res.ctrl.rowHits += s.rowHits;
        res.ctrl.rowMisses += s.rowMisses;
        res.ctrl.rowConflicts += s.rowConflicts;
        res.ctrl.readForwards += s.readForwards;
        res.ctrl.readLatencySum += s.readLatencySum;
        res.ctrl.ptwReads += s.ptwReads;
        res.ctrl.ptwActs += s.ptwActs;
        res.ctrl.ptwActHits += s.ptwActHits;
        for (int l = 0; l < 4; ++l)
            res.ctrl.ptwReadsByLevel[l] += s.ptwReadsByLevel[l];
    }
    for (auto &mmu : mmus_)
        res.vm += mmu->stats();
    // Shared spaces are referenced by every Mmu; count their table
    // frames once (legacy Mmus report their owned space themselves).
    for (const auto &space : spaces_)
        res.vm.ptTables += space->pageTable().tablesAllocated();
    for (const auto &core : cores_) {
        res.xlatStallCycles += core->stats().xlatStallCycles;
        res.shootdownStallCycles += core->stats().shootdownStallCycles;
    }
    res.llc = llc_->stats();
    res.rmpkc = res.cpuCycles
                    ? double(res.ctrl.acts) / (res.cpuCycles / 1000.0)
                    : 0.0;

    for (size_t ch = 0; ch < energy_.size(); ++ch) {
        energy_[ch]->finalize(controllers_[ch]->now());
        res.energy += energy_[ch]->breakdown();
    }

    if (config_.ctrl.trackRltl) {
        res.rltlWindowsMs = config_.ctrl.rltlWindowsMs;
        size_t n = res.rltlWindowsMs.size();
        std::vector<double> within(n, 0.0);
        double acts = 0, after_ref = 0;
        for (auto &mc : controllers_) {
            ctrl::RltlTracker *t = mc->rltl();
            CCSIM_ASSERT(t, "RLTL tracking not enabled");
            double a = double(t->activations());
            acts += a;
            after_ref += t->afterRefreshFraction() * a;
            for (size_t i = 0; i < n; ++i)
                within[i] += t->rltl(i) * a;
        }
        for (size_t i = 0; i < n; ++i)
            res.rltl.push_back(acts ? within[i] / acts : 0.0);
        res.afterRefresh8ms = acts ? after_ref / acts : 0.0;
    }

    if (tele_)
        tele_->flush(); // Write configured files.
    return res;
}

void
System::settleCoreStalls(int core, CpuCycle skipped, CpuCycle upto)
{
    if (skipped == 0)
        return;
    cores_[core]->accountStallCycles(skipped);
    if (cores_[core]->stallKind() == cpu::Core::StallKind::BlockedLlc)
        llc_->accountBlockedProbes(skipped);
    if (tele_)
        tele_->corePark(core, skipped, upto);
}

void
System::calUnpark(int core, CpuCycle now)
{
    CalendarKernelState &cal = *cal_;
    CpuCycle since = cal.parkedSince[core];
    CCSIM_ASSERT(since != kNoCycle, "unparking an awake core");
    CCSIM_ASSERT(now >= since, "core parked in the future");
    // Settle the stall statistics the elided ticks would have accrued
    // over [since, now) — one per cycle, as the per-cycle loop ticks.
    settleCoreStalls(core, now - since, now);
    cal.parkedSince[core] = kNoCycle;
    cal.awake.insert(
        std::lower_bound(cal.awake.begin(), cal.awake.end(), core), core);
}

void
System::calNoteWake(int core)
{
    if (!cal_)
        return;
    CalendarKernelState &cal = *cal_;
    if (cal.parkedSince[core] == kNoCycle)
        return; // Awake cores tick anyway.
    if (cal.inCorePhase && core > cal.currentCore) {
        // The id-ordered walk has not reached this core yet, so the
        // per-cycle reference would tick it this very cycle: unpark it
        // straight into the (sorted) awake list ahead of the cursor.
        calUnpark(core, cal.now);
    } else if (!cal.wakeQueued[core]) {
        // Woken by the controller/LLC phase, or by a core the walk
        // already passed: it re-ticks at the next core phase.
        cal.wakeQueued[core] = 1;
        cal.pendingWake.push_back(core);
    }
}

SystemResult
System::runCalendar()
{
    // ------------------------------------------------------------------
    // Calendar-queue event kernel. Semantics are identical to the
    // PerCycle reference (bit-identical SystemResult; enforced by
    // tests/test_system.cc) but a component is ticked only when it
    // could do observable work:
    //  - a parked core with a self-scheduled LLC-hit return posts one
    //    wake event at park time (its hit queue is frozen while
    //    parked, so the event never moves); a purely externally-driven
    //    core posts nothing and is revived by the LLC callbacks;
    //  - each controller is asked for its nextEventAt() at every DRAM
    //    boundary: it ticks when that is due and otherwise advances
    //    its clock idle;
    //  - only awake cores are visited in the core phase (the sorted
    //    awake list preserves the reference's id-ordered tick order);
    //    parked cores are entirely off the per-cycle path;
    //  - when everything is parked, `now` jumps to the earliest posted
    //    wake or controller horizon, each controller asked afresh.
    //    Stale wake entries (the core was woken another way)
    //    can only stop the jump early — at a cycle where nothing fires
    //    and nothing is due, which is statistically invisible — never
    //    skip past a real event, because posting only adds entries.
    // kernelParanoid runs the per-cycle schedule in run() instead, with
    // this kernel's wake queue and controller horizons shadowed and
    // asserted.
    // ------------------------------------------------------------------
    CCSIM_ASSERT(!cal_, "runCalendar is not reentrant");
    cal_ = std::make_unique<CalendarKernelState>(cores_.size());
    CalendarKernelState &cal = *cal_;
    // Released on every exit, a stop or an error included, so the
    // kernel can run again.
    struct ReleaseCal {
        std::unique_ptr<CalendarKernelState> &p;
        ~ReleaseCal() { p.reset(); }
    } release_cal{cal_};

    CpuCycle now = 0;
    bool warm = false;
    CpuCycle warm_end = 0;
    const CpuCycle ratio = static_cast<CpuCycle>(config_.cpuRatio);
    // First controller (DRAM) boundary at or after `now`; kept in step
    // instead of testing now % ratio every cycle.
    CpuCycle next_boundary = 0;
    auto boundary_from = [&](CpuCycle at) {
        return (at + ratio - 1) / ratio * ratio;
    };

    // Warm-up and done tests as monotone cursors: retired counts only
    // grow between stat resets, so a core that passed a threshold stays
    // past it and each test resumes at the first core not yet past.
    std::size_t warm_cursor = 0, done_cursor = 0;
    auto all_past = [&](std::size_t &cursor, auto &&past) {
        while (cursor < cores_.size() && past(*cores_[cursor]))
            ++cursor;
        return cursor == cores_.size();
    };

    StallWatchdog watchdog(*this);
    CpuCycle next_progress_check = 65536;

    // Settle every parked core's stall statistics up to `upto` and
    // re-base its park time (warm-up boundary and end of run).
    auto settle_all_parked = [&](CpuCycle upto) {
        for (std::size_t i = 0; i < cores_.size(); ++i) {
            if (cal.parkedSince[i] == kNoCycle)
                continue;
            CCSIM_ASSERT(upto >= cal.parkedSince[i],
                         "core parked in the future");
            settleCoreStalls(static_cast<int>(i),
                             upto - cal.parkedSince[i], upto);
            cal.parkedSince[i] = upto;
        }
    };

    bool progress_since_check = true;

    if (resume_) {
        // Resuming from a snapshot: continue from the saved run point
        // with every core awake (the CalendarKernelState starts with
        // all cores on the awake list and an empty wake queue). Restored
        // previously-parked cores take one real non-progressing tick
        // and re-park, reposting their self-wakes, which is
        // observationally identical to the uninterrupted schedule
        // (docs/resilience.md). The controllers need nothing: the
        // kernel asks them for their horizons afresh.
        now = resume_->now;
        warm = resume_->warm;
        warm_end = resume_->warmEnd;
        next_progress_check = now + 65536;
        next_boundary = boundary_from(now);
        resume_.reset();
    }

    while (true) {
        // Sample before a same-cycle checkpoint (see run()).
        if (obsSampleDue(now)) {
            settle_all_parked(now);
            tele_->takeSample(now);
        }
        if (checkpointDue(now)) {
            settle_all_parked(now);
            fireCheckpoint(now, warm, warm_end);
        }

        if (progress_since_check) {
            progress_since_check = false;
            if (!warm && all_past(warm_cursor, [&](const cpu::Core &c) {
                    return c.stats().retired >= config_.warmupInsts;
                })) {
                warm = true;
                warm_end = now;
                settle_all_parked(now);
                resetAllStats(now);
                if (tele_)
                    tele_->rebase();
            }
            if (warm && all_past(done_cursor, [](const cpu::Core &c) {
                    return c.reachedTarget();
                }))
                break;
        }

        cal.now = now;

        // Deliver core wake events due this cycle (one compare when
        // nothing is due). Entries revalidate against the core's own
        // horizon so stale posts from an earlier park are dropped.
        cal.wakes.drainUpTo(now, [&](int i) {
            if (cal.parkedSince[i] != kNoCycle &&
                cores_[i]->nextEventAt() <= now && !cal.wakeQueued[i]) {
                cal.wakeQueued[i] = 1;
                cal.pendingWake.push_back(i);
            }
        });

        if (now == next_boundary) {
            next_boundary += ratio;
            for (auto &mc : controllers_) {
                if (mc->nextEventAt() <= mc->now())
                    mc->tick();
                else
                    mc->advanceIdle(); // Provably a pure clock advance.
            }
            if (llc_->needsAnyDrain())
                llc_->tick();
        }

        // Core phase: unpark everything the last cycle's events or the
        // controller phase woke, then tick the awake list in id order.
        if (!cal.pendingWake.empty()) {
            for (int i : cal.pendingWake) {
                cal.wakeQueued[i] = 0;
                if (cal.parkedSince[i] != kNoCycle)
                    calUnpark(i, now);
            }
            cal.pendingWake.clear();
        }
        bool any_progress = false;
        bool any_parked = false;
        cal.inCorePhase = true;
        for (std::size_t k = 0; k < cal.awake.size(); ++k) {
            int i = cal.awake[k];
            cal.currentCore = i;
            if (cores_[i]->tick(now)) {
                any_progress = true;
            } else {
                cal.parkedSince[i] = now + 1; // Elide from next cycle.
                any_parked = true;
            }
        }
        cal.inCorePhase = false;
        cal.currentCore = -1;
        if (any_parked) {
            // Compact the awake list; freshly parked cores post their
            // self-wake (if any) once — their hit queue is frozen while
            // parked, so the event cannot move until they wake.
            std::size_t w = 0;
            for (std::size_t k = 0; k < cal.awake.size(); ++k) {
                int i = cal.awake[k];
                if (cal.parkedSince[i] == kNoCycle) {
                    cal.awake[w++] = i;
                } else {
                    CpuCycle e = cores_[i]->nextEventAt();
                    if (e != kNoCycle)
                        cal.wakes.post(e, i);
                }
            }
            cal.awake.resize(w);
        }
        if (any_progress)
            progress_since_check = true;

        CpuCycle next = now + 1;
        if (!any_progress && cal.awake.empty() &&
            cal.pendingWake.empty()) {
            // Everything is parked and nothing fired: jump to the
            // earliest of the wake queue and the controller horizons.
            // The horizon is always finite: refresh keeps every
            // controller's nextEventAt() finite.
            CpuCycle horizon = cal.wakes.nextEventAt();
            for (auto &mc : controllers_)
                horizon = std::min(
                    horizon, static_cast<CpuCycle>(mc->nextEventAt()) * ratio);
            Cycle ctrl_now = controllers_[0]->now();
            if (llc_->needsTick())
                horizon = std::min<CpuCycle>(horizon, ctrl_now * ratio);
            CCSIM_ASSERT(horizon != kNoCycle, "no future event horizon");
            next = std::max(now + 1, horizon);
            // Land exactly on the next sample cycle: stopping a jump
            // early at an eventless cycle is statistically invisible
            // (same argument as stale wake entries), and it makes the
            // sample grid — hence the whole time series — identical to
            // the per-cycle reference.
            if (tele_ && tele_->seriesOn())
                next = std::max<CpuCycle>(
                    now + 1, std::min(next, tele_->nextSampleAt()));
            if (next > now + 1) {
                // Controller ticks inside (now, next) are provably
                // idle; fast-forward their clocks in one step.
                Cycle skipped_ticks = (next - 1) / ratio - now / ratio;
                if (skipped_ticks)
                    for (auto &mc : controllers_)
                        mc->skipTicks(skipped_ticks);
            }
        }
        now = next;
        if (now > next_boundary)
            next_boundary = boundary_from(now); // Jumped past it.

        while (now >= next_progress_check) {
            watchdog.checkAt(now);
            next_progress_check += 65536;
            if (resilience::stopRequested()) {
                settle_all_parked(now);
                if (ckptHook_)
                    fireCheckpoint(now, warm, warm_end);
                throw resilience::SimError(
                    resilience::ErrorKind::Interrupted,
                    "stop signal received at cycle " +
                        std::to_string(now));
            }
        }
        if (now > kMaxCpuCycles)
            CCSIM_FATAL("simulation exceeded kMaxCpuCycles=",
                        kMaxCpuCycles,
                        "; workload cannot make progress?");
    }

    settle_all_parked(now);
    return collectResults(now, warm_end);
}

// ---------------------------------------------------------------------
// Checkpoint/restore (docs/resilience.md).
// ---------------------------------------------------------------------

void
System::setCheckpointHook(CpuCycle first_at, CpuCycle interval,
                          CheckpointHook hook)
{
    ckptHook_ = std::move(hook);
    ckptNextAt_ = ckptHook_ ? first_at : kNoCycle;
    ckptInterval_ = interval;
}

void
System::fireCheckpoint(CpuCycle now, bool warm, CpuCycle warm_end)
{
    ckptPoint_ = RunPoint{now, warm, warm_end};
    ckptNextAt_ = ckptInterval_ > 0 ? now + ckptInterval_ : kNoCycle;
    inCkptHook_ = true;
    bool keep = false;
    try {
        keep = ckptHook_(*this);
    } catch (...) {
        inCkptHook_ = false;
        throw;
    }
    inCkptHook_ = false;
    if (!keep)
        throw resilience::SimError(
            resilience::ErrorKind::Interrupted,
            "run stopped by checkpoint hook at cycle " +
                std::to_string(now));
}

std::uint64_t
System::configHash() const
{
    // Covers every SimConfig field but the execution strategy (kernel
    // mode, paranoia), so snapshots resume across kernels, and
    // telemetry, which the snapshot's "obs" section checks. See
    // resilience/checkpoint.hh. The Table 1 machine constants (queue
    // depths, window, MSHRs, line and page sizes, ...) are mixed where
    // their former SimConfig fields were, so hashes stay as they were
    // and a build that changes a constant refuses older snapshots.
    std::uint64_t h = 0x4343534e41503031ull; // "CCSNAP01"
    auto mix = [&h](auto v) {
        static_assert(!std::is_floating_point_v<decltype(v)>,
                      "doubles mix by bits: use mix_f64");
        h = mix64(h ^ static_cast<std::uint64_t>(v));
    };
    auto mix_str = [&](const std::string &s) {
        mix(s.size());
        for (char c : s)
            mix(static_cast<unsigned char>(c));
    };
    auto mix_f64 = [&](double d) {
        std::uint64_t v;
        std::memcpy(&v, &d, sizeof v);
        mix(v);
    };
    auto mix_f64s = [&](const auto &v) {
        mix(v.size());
        for (double d : v)
            mix_f64(d);
    };
    const SimConfig &c = config_;
    mix(c.nCores);
    mix(c.channels);
    mix_str(c.dramStandard);
    mix(c.mapping);

    using ctrl::MemoryController;
    mix(MemoryController::kReadQueueSize);
    mix(MemoryController::kWriteQueueSize);
    mix(c.ctrl.rowPolicy);
    mix(MemoryController::kWriteHighWatermark);
    mix(MemoryController::kWriteLowWatermark);
    mix(c.ctrl.trackRltl);
    mix_f64s(c.ctrl.rltlWindowsMs);
    mix_f64(MemoryController::kRltlRefreshWindowMs);

    mix(c.llc.sizeBytes);
    mix(c.llc.ways);
    mix(kLineBytes);
    mix(mem::Llc::kMshrsPerCore);
    mix(mem::Llc::kHitLatency);

    mix(cpu::Core::kIssueWidth);
    mix(cpu::Core::kWindowSize);

    const vm::VmConfig &v = c.vm;
    mix(v.enable);
    mix(vm::kPageBytes);
    mix(vm::kHugePageBytes);
    mix(v.l1Entries);
    mix(v.l1Ways);
    mix(v.l2Entries);
    mix(v.l2Ways);
    mix(vm::Mmu::kL2HitLatency);
    mix(v.alloc);
    mix(vm::AddressSpace::kFragSeed);
    mix_f64(v.fragDegree);
    mix_f64(v.aging.maxDegree);
    mix(v.aging.rampCycles);
    mix(v.pwc.enable);
    mix(v.pwc.entriesPerLevel);
    mix(v.pwc.ways);
    mix(v.mp.processes);
    mix(v.mp.switchQuantum);
    mix_f64(vm::Mmu::kQuantumJitter);
    mix(v.mp.flushOnSwitch);
    mix(v.mp.remapPeriod);
    mix(v.mp.shootdownCycles);
    mix_f64(vm::AddressSpace::kPtPoolFraction);

    mix(c.cpuRatio);
    mix(c.warmupInsts);
    mix(c.targetInsts);
    mix(kMaxCpuCycles);
    mix(c.scheme);

    mix(c.cc.table.entries);
    mix(c.cc.table.ways);
    mix(c.cc.table.policy);
    mix_f64(c.cc.table.bipEpsilon);
    mix(c.cc.table.seed);
    mix(c.cc.durationCycles);
    mix(c.cc.trcdReduced);
    mix(c.cc.trasReduced);
    mix(c.cc.sharedTable);
    mix(c.cc.trackUnlimited);
    mix_f64(c.ccDurationMs);
    mix(c.ccUseTimingModel);
    mix_f64s(kNuatBinEdgesMs);
    mix(c.seed);

    mix(workloadNames_.size());
    for (const auto &name : workloadNames_)
        mix_str(name);
    return h;
}

std::vector<std::uint8_t>
System::serializeSnapshot() const
{
    using resilience::ErrorKind;
    using resilience::SimError;
    if (!inCkptHook_)
        throw SimError(ErrorKind::Unsupported,
                       "serializeSnapshot must be called from inside a "
                       "checkpoint hook (the kernel anchors the "
                       "snapshot to a quiescent run point)");

    resilience::SnapshotWriter w;
    resilience::writeSnapshotHeader(w, configHash());

    w.beginSection("meta", 2);
    w.put(ckptPoint_.now);
    w.put(ckptPoint_.warm);
    w.put(ckptPoint_.warmEnd);
    w.endSection();

    w.beginSection("traces", 1);
    for (const cpu::TraceSource *t : traceRefs_)
        t->saveState(w);
    w.endSection();

    w.beginSection("cores", 1);
    for (const auto &core : cores_)
        core->saveState(w);
    w.endSection();

    w.beginSection("vm", 1);
    w.put(static_cast<std::uint32_t>(spaces_.size()));
    for (const auto &space : spaces_)
        space->saveState(w);
    w.put(static_cast<std::uint32_t>(mmus_.size()));
    for (const auto &mmu : mmus_)
        mmu->saveState(w);
    w.endSection();

    w.beginSection("channels", 1);
    for (int ch = 0; ch < config_.channels; ++ch) {
        controllers_[ch]->saveState(w);
        refresh_[ch]->saveState(w);
        providers_[ch]->saveState(w);
    }
    w.put(static_cast<std::uint32_t>(energy_.size()));
    for (const auto &e : energy_)
        e->saveState(w);
    w.endSection();

    w.beginSection("llc", 1);
    llc_->saveState(w);
    w.endSection();

    // Telemetry is execution strategy (excluded from the config hash);
    // the section records whether it was live so a mismatched resume
    // fails loudly instead of silently dropping the series.
    w.beginSection("obs", 1);
    w.put<std::uint8_t>(tele_ ? 1 : 0);
    if (tele_) {
        tele_->saveState(w);
        for (const auto &core : cores_)
            w.put(core->obsWalkStart());
    }
    w.endSection();

    return w.take();
}

void
System::restoreSnapshot(const std::vector<std::uint8_t> &bytes)
{
    using resilience::ErrorKind;
    using resilience::SimError;
    if (inCkptHook_)
        throw SimError(ErrorKind::Unsupported,
                       "cannot restore a snapshot from inside a "
                       "checkpoint hook");

    resilience::SnapshotReader r(bytes);
    resilience::readSnapshotHeader(r, configHash());

    // Version 1 carried one more execution-status byte after the run
    // point; such snapshots are refused rather than misread.
    if (r.openSection("meta", 2) < 2)
        throw SimError(ErrorKind::CorruptSnapshot,
                       "snapshot section 'meta' version 1 is no longer "
                       "supported");
    RunPoint pt;
    r.get(pt.now);
    r.get(pt.warm);
    r.get(pt.warmEnd);
    r.closeSection();

    r.openSection("traces", 1);
    for (cpu::TraceSource *t : traceRefs_)
        t->loadState(r);
    r.closeSection();

    r.openSection("cores", 1);
    for (auto &core : cores_)
        core->loadState(r);
    r.closeSection();

    r.openSection("vm", 1);
    if (r.get<std::uint32_t>() != spaces_.size())
        throw SimError(ErrorKind::CorruptSnapshot,
                       "address-space count mismatch in snapshot");
    for (auto &space : spaces_)
        space->loadState(r);
    if (r.get<std::uint32_t>() != mmus_.size())
        throw SimError(ErrorKind::CorruptSnapshot,
                       "MMU count mismatch in snapshot");
    for (auto &mmu : mmus_)
        mmu->loadState(r);
    r.closeSection();

    r.openSection("channels", 1);
    for (int ch = 0; ch < config_.channels; ++ch) {
        controllers_[ch]->loadState(r, &mem::Llc::fillCallback,
                                    llc_.get());
        refresh_[ch]->loadState(r);
        providers_[ch]->loadState(r);
    }
    if (r.get<std::uint32_t>() != energy_.size())
        throw SimError(ErrorKind::CorruptSnapshot,
                       "energy-model count mismatch in snapshot");
    for (auto &e : energy_)
        e->loadState(r);
    r.closeSection();

    r.openSection("llc", 1);
    llc_->loadState(r);
    r.closeSection();

    r.openSection("obs", 1);
    {
        bool snapObs = r.get<std::uint8_t>() != 0;
        bool haveObs = tele_ != nullptr;
        if (snapObs != haveObs)
            throw SimError(ErrorKind::Unsupported,
                           snapObs
                               ? "snapshot carries telemetry state; "
                                 "resume with obs.enable set"
                               : "snapshot has no telemetry state; "
                                 "resume with obs.enable unset");
        if (haveObs) {
            tele_->loadState(r);
            for (auto &core : cores_)
                core->setObsWalkStart(r.get<CpuCycle>());
        }
    }
    r.closeSection();

    resume_ = pt;
}

} // namespace ccsim::sim
