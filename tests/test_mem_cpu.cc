/** @file LLC + MSHR and trace-driven core tests. */

#include <gtest/gtest.h>

#include <memory>

#include "cpu/core.hh"
#include "dram/addr.hh"
#include "helpers.hh"
#include "mem/llc.hh"

namespace ccsim {
namespace {

struct LlcHarness {
    test::CtrlHarness ctrl;
    dram::AddressMapper mapper{ctrl.spec.org,
                               dram::MapScheme::RoBaRaCoCh};
    std::vector<std::pair<int, std::uint64_t>> fills;
    std::unique_ptr<mem::Llc> llc;

    explicit LlcHarness(mem::LlcConfig cfg = {})
    {
        llc = std::make_unique<mem::Llc>(
            cfg, mapper,
            std::vector<ctrl::MemoryController *>{ctrl.mc.get()},
            [this](int core, std::uint64_t token) {
                fills.emplace_back(core, token);
            });
    }

    void
    run(int cycles)
    {
        for (int i = 0; i < cycles; ++i) {
            ctrl.mc->tick();
            llc->tick();
        }
    }

    void
    settle(int max_cycles = 20000)
    {
        for (int i = 0; i < max_cycles && !llc->quiesced(); ++i) {
            ctrl.mc->tick();
            llc->tick();
        }
    }
};

mem::LlcConfig
tinyLlc()
{
    mem::LlcConfig cfg;
    cfg.sizeBytes = 8192; // 64 sets x 2 ways x 64 B.
    cfg.ways = 2;
    return cfg;
}

TEST(Llc, MissThenFillThenHit)
{
    LlcHarness h;
    EXPECT_EQ(h.llc->access(0, 1000, false, 1), mem::Llc::Result::Miss);
    h.settle();
    ASSERT_EQ(h.fills.size(), 1u);
    EXPECT_EQ(h.fills[0], std::make_pair(0, std::uint64_t(1)));
    EXPECT_EQ(h.llc->access(0, 1000, false, 2), mem::Llc::Result::Hit);
    EXPECT_EQ(h.llc->stats().hits, 1u);
    EXPECT_EQ(h.llc->stats().misses, 1u);
}

TEST(Llc, MshrMergesSameLine)
{
    LlcHarness h;
    EXPECT_EQ(h.llc->access(0, 500, false, 1), mem::Llc::Result::Miss);
    EXPECT_EQ(h.llc->access(1, 500, false, 2), mem::Llc::Result::Miss);
    EXPECT_EQ(h.llc->stats().misses, 1u);
    EXPECT_EQ(h.llc->stats().mshrMerges, 1u);
    h.settle();
    ASSERT_EQ(h.fills.size(), 2u); // Both waiters woken by one fill.
}

TEST(Llc, PerCoreMshrLimitBlocks)
{
    LlcHarness h;
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(h.llc->access(0, 100 + i, false, i),
                  mem::Llc::Result::Miss);
    EXPECT_EQ(h.llc->access(0, 200, false, 99),
              mem::Llc::Result::Blocked);
    EXPECT_GT(h.llc->stats().blockedMshr, 0u);
    // Another core is unaffected.
    EXPECT_EQ(h.llc->access(1, 200, false, 50), mem::Llc::Result::Miss);
    h.settle();
    // After fills, core 0 can allocate again.
    EXPECT_EQ(h.llc->access(0, 300, false, 100),
              mem::Llc::Result::Miss);
}

TEST(Llc, EvictionWritesBackDirtyLines)
{
    LlcHarness h(tinyLlc());
    // Two lines in the same set (64 sets): line X and X + 64 and X+128.
    EXPECT_EQ(h.llc->access(0, 0, true, 1), mem::Llc::Result::Miss);
    h.settle();
    EXPECT_EQ(h.llc->access(0, 64, true, 2), mem::Llc::Result::Miss);
    h.settle();
    // Set is full (2 ways); next install evicts dirty LRU (line 0).
    EXPECT_EQ(h.llc->access(0, 128, false, 3), mem::Llc::Result::Miss);
    h.settle();
    EXPECT_EQ(h.llc->stats().writebacks, 1u);
    EXPECT_GE(h.ctrl.mc->stats().writes, 1u);
}

TEST(Llc, CleanEvictionNoWriteback)
{
    LlcHarness h(tinyLlc());
    EXPECT_EQ(h.llc->access(0, 0, false, 1), mem::Llc::Result::Miss);
    h.settle();
    EXPECT_EQ(h.llc->access(0, 64, false, 2), mem::Llc::Result::Miss);
    h.settle();
    EXPECT_EQ(h.llc->access(0, 128, false, 3), mem::Llc::Result::Miss);
    h.settle();
    EXPECT_EQ(h.llc->stats().writebacks, 0u);
}

TEST(Llc, LruKeepsRecentlyUsedLine)
{
    LlcHarness h(tinyLlc());
    h.llc->access(0, 0, false, 1);
    h.settle();
    h.llc->access(0, 64, false, 2);
    h.settle();
    h.llc->access(0, 0, false, 3); // Touch line 0: now MRU.
    h.llc->access(0, 128, false, 4);
    h.settle();
    EXPECT_EQ(h.llc->access(0, 0, false, 5), mem::Llc::Result::Hit);
    EXPECT_EQ(h.llc->access(0, 64, false, 6), mem::Llc::Result::Miss);
    h.settle();
}

TEST(Llc, VictimBufferHitRescuesEvictedDirtyLine)
{
    // Keep the write queue busy so the writeback lingers, then re-touch
    // the evicted line: it must be rescued, not refetched.
    LlcHarness h(tinyLlc());
    h.llc->access(0, 0, true, 1);
    h.settle();
    h.llc->access(0, 64, false, 2);
    h.settle();
    h.llc->access(0, 128, false, 3); // Evicts dirty line 0.
    // Do not tick: writeback still queued in the LLC.
    EXPECT_EQ(h.llc->access(0, 0, false, 4), mem::Llc::Result::Hit);
    h.settle();
    // The rescued line must still be dirty: evicting it again writes
    // it back.
    h.llc->access(1, 64, false, 5);
    h.settle();
    h.llc->access(1, 128, false, 6);
    h.settle();
    EXPECT_GE(h.llc->stats().writebacks, 1u);
}

TEST(Llc, WriteMissAllocatesAndMarksDirty)
{
    LlcHarness h(tinyLlc());
    EXPECT_EQ(h.llc->access(0, 7, true, 1), mem::Llc::Result::Miss);
    h.settle();
    // Fill happened; line present and dirty (observable via writeback).
    EXPECT_EQ(h.llc->access(0, 7 + 64, false, 2), mem::Llc::Result::Miss);
    h.settle();
    EXPECT_EQ(h.llc->access(0, 7 + 128, false, 3),
              mem::Llc::Result::Miss);
    h.settle();
    EXPECT_EQ(h.llc->stats().writebacks, 1u);
}

TEST(Llc, GeometryValidation)
{
    mem::LlcConfig cfg;
    cfg.sizeBytes = 4ull << 20;
    cfg.ways = 16;
    LlcHarness h(cfg);
    EXPECT_EQ(h.llc->numSets(), 4096);
}

// ---------------------------------------------------------------------
// Core.

/** Scripted trace source. */
struct ScriptTrace : cpu::TraceSource {
    std::vector<cpu::TraceRecord> records;
    size_t pos = 0;
    bool
    next(cpu::TraceRecord &r) override
    {
        if (pos >= records.size())
            return false;
        r = records[pos++];
        return true;
    }
    void reset() override { pos = 0; }
};

// The default LlcHarness fill callback stores into `fills`; for core
// tests we need it routed to the core, so build a dedicated fixture.
struct CoreTest : ::testing::Test {
    test::CtrlHarness ctrl;
    dram::AddressMapper mapper{ctrl.spec.org,
                               dram::MapScheme::RoBaRaCoCh};
    std::unique_ptr<mem::Llc> llc;
    ScriptTrace trace;
    std::unique_ptr<cpu::Core> core;

    void
    makeCore(std::uint64_t target)
    {
        mem::LlcConfig cfg;
        llc = std::make_unique<mem::Llc>(
            cfg, mapper,
            std::vector<ctrl::MemoryController *>{ctrl.mc.get()},
            [this](int, std::uint64_t token) {
                core->onMissComplete(token);
            });
        cpu::CoreConfig ccfg;
        ccfg.targetInsts = target;
        core = std::make_unique<cpu::Core>(0, ccfg, trace, *llc);
    }

    CpuCycle
    run(CpuCycle max_cycles)
    {
        CpuCycle now = 0;
        while (!core->reachedTarget() && now < max_cycles) {
            if (now % 5 == 0) {
                ctrl.mc->tick();
                llc->tick();
            }
            core->tick(now);
            ++now;
        }
        return now;
    }
};

TEST_F(CoreTest, ComputeBoundIpcApproachesIssueWidth)
{
    cpu::TraceRecord r;
    r.nonMemInsts = 1000;
    r.addr = 0;
    r.isWrite = false;
    trace.records.assign(100, r);
    makeCore(50000);
    CpuCycle cycles = run(1000000);
    double ipc = 50000.0 / cycles;
    EXPECT_GT(ipc, 2.5); // 3-wide issue, rare memory ops.
}

TEST_F(CoreTest, MemoryBoundCoreStalls)
{
    // Every instruction is a load to a distinct line: window fills with
    // outstanding misses; IPC far below 1.
    trace.records.clear();
    for (int i = 0; i < 2000; ++i) {
        cpu::TraceRecord r;
        r.nonMemInsts = 0;
        r.addr = Addr(i) * 64 * 8192; // Distinct rows.
        r.isWrite = false;
        trace.records.push_back(r);
    }
    makeCore(2000);
    CpuCycle cycles = run(10000000);
    ASSERT_TRUE(core->reachedTarget());
    double ipc = 2000.0 / cycles;
    EXPECT_LT(ipc, 0.5);
    EXPECT_GT(core->stats().memReads, 1900u);
}

TEST_F(CoreTest, StoresDoNotBlockRetirement)
{
    // Stores cycle over a small line set (hits after the cold misses):
    // they retire at issue, so IPC stays near compute-bound levels even
    // though the matching loads-to-the-same-lines variant would pay the
    // 20-cycle hit latency on the critical path.
    trace.records.clear();
    for (int i = 0; i < 1000; ++i) {
        cpu::TraceRecord r;
        r.nonMemInsts = 1;
        r.addr = Addr(i % 8) * 64;
        r.isWrite = true;
        trace.records.push_back(r);
    }
    makeCore(2000);
    CpuCycle cycles = run(10000000);
    ASSERT_TRUE(core->reachedTarget());
    EXPECT_GT(2000.0 / cycles, 1.0);
    EXPECT_GT(core->stats().memWrites, 900u);
}

TEST_F(CoreTest, TraceLoopsAtEnd)
{
    cpu::TraceRecord r;
    r.nonMemInsts = 9;
    r.addr = 64;
    trace.records.assign(3, r); // 30 insts per pass; target 300.
    makeCore(300);
    run(1000000);
    EXPECT_TRUE(core->reachedTarget());
}

TEST_F(CoreTest, ResetStatsRebasesIpc)
{
    cpu::TraceRecord r;
    r.nonMemInsts = 50;
    r.addr = 64;
    trace.records.assign(10, r);
    makeCore(1000);
    run(100000);
    ASSERT_TRUE(core->reachedTarget());
    core->resetStats(12345);
    EXPECT_EQ(core->stats().retired, 0u);
    EXPECT_FALSE(core->reachedTarget());
}

} // namespace
} // namespace ccsim
