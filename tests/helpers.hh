/**
 * @file
 * Shared test scaffolding: a minimal single-channel controller harness
 * with pluggable latency provider, an oracle listener that records
 * and verifies every command the harness issues, and a scoped
 * environment-variable override.
 */

#ifndef CCSIM_TESTS_HELPERS_HH
#define CCSIM_TESTS_HELPERS_HH

#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chargecache/providers.hh"
#include "ctrl/controller.hh"
#include "dram/oracle.hh"

namespace ccsim::test {

/** CommandListener that feeds a TimingOracle. */
class OracleProbe : public ctrl::CommandListener
{
  public:
    explicit OracleProbe(const dram::DramSpec &spec) : oracle(spec) {}

    void
    onCommand(const dram::Command &cmd, Cycle cycle,
              const dram::EffActTiming *eff) override
    {
        oracle.record(cmd, cycle, eff);
    }

    dram::TimingOracle oracle;
};

/** One controller + provider + refresh + oracle, ready to tick. */
struct CtrlHarness {
    dram::DramSpec spec;
    ctrl::CtrlConfig config;
    std::unique_ptr<chargecache::LatencyProvider> provider;
    std::unique_ptr<ctrl::RefreshScheduler> refresh;
    std::unique_ptr<ctrl::MemoryController> mc;
    std::unique_ptr<OracleProbe> probe;
    std::vector<std::pair<Addr, Cycle>> completions;

    explicit CtrlHarness(
        ctrl::RowPolicy policy = ctrl::RowPolicy::Open,
        std::unique_ptr<chargecache::LatencyProvider> prov = nullptr)
        : spec(dram::DramSpec::ddr3_1600(1))
    {
        config.rowPolicy = policy;
        config.trackRltl = true;
        provider = prov
                       ? std::move(prov)
                       : std::make_unique<chargecache::StandardProvider>(
                             spec.timing);
        refresh = std::make_unique<ctrl::RefreshScheduler>(spec);
        mc = std::make_unique<ctrl::MemoryController>(
            spec, config, *provider, *refresh, 0);
        probe = std::make_unique<OracleProbe>(spec);
        mc->addListener(probe.get());
    }

    /** Enqueue a read to (bank, row, col); returns false if full. */
    bool
    read(int bank, int row, int col, int core = 0)
    {
        if (!mc->canAccept(ctrl::ReqType::Read))
            return false;
        ctrl::Request req;
        req.type = ctrl::ReqType::Read;
        req.addr.channel = 0;
        req.addr.rank = 0;
        req.addr.bank = bank;
        req.addr.row = row;
        req.addr.col = col;
        req.lineAddr = (Addr(bank) << 40) | (Addr(row) << 8) | col;
        req.coreId = core;
        req.callback = [](void *ctx, const ctrl::Request &r, Cycle done) {
            static_cast<CtrlHarness *>(ctx)->completions.emplace_back(
                r.lineAddr, done);
        };
        req.callbackCtx = this;
        mc->enqueue(std::move(req));
        return true;
    }

    bool
    write(int bank, int row, int col, int core = 0)
    {
        if (!mc->canAccept(ctrl::ReqType::Write))
            return false;
        ctrl::Request req;
        req.type = ctrl::ReqType::Write;
        req.addr.channel = 0;
        req.addr.rank = 0;
        req.addr.bank = bank;
        req.addr.row = row;
        req.addr.col = col;
        req.lineAddr = (Addr(bank) << 40) | (Addr(row) << 8) | col;
        req.coreId = core;
        mc->enqueue(std::move(req));
        return true;
    }

    void
    run(Cycle cycles)
    {
        for (Cycle i = 0; i < cycles; ++i)
            mc->tick();
    }

    /** Tick until all queues/pending drain (bounded). */
    void
    drain(Cycle max_cycles = 100000)
    {
        Cycle spent = 0;
        while ((mc->queuedRequests() > 0 || mc->pendingReads() > 0) &&
               spent < max_cycles) {
            mc->tick();
            ++spent;
        }
    }

    std::vector<std::string>
    violations()
    {
        return probe->oracle.verify();
    }
};

/**
 * Set an environment variable (nullptr: unset it) for one scope, then
 * restore what was there, so a suite run in one process (and CI jobs
 * that set CCSIM_THREADS) sees no leftover.
 */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            old_ = old;
        if (value)
            setenv(name, value, 1);
        else
            unsetenv(name);
    }

    ~ScopedEnv()
    {
        if (old_)
            setenv(name_.c_str(), old_->c_str(), 1);
        else
            unsetenv(name_.c_str());
    }

    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    std::string name_;
    std::optional<std::string> old_;
};

} // namespace ccsim::test

#endif // CCSIM_TESTS_HELPERS_HH
