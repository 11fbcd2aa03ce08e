/** @file Unit + property tests for the DRAM device model. */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/log.hh"
#include "common/random.hh"
#include "dram/addr.hh"
#include "dram/bank.hh"
#include "dram/channel.hh"
#include "dram/oracle.hh"
#include "dram/rank.hh"
#include "dram/spec.hh"
#include "resilience/error.hh"

namespace ccsim::dram {
namespace {

TEST(Spec, Ddr3PresetMatchesTable1)
{
    DramSpec s = DramSpec::ddr3_1600(2);
    EXPECT_EQ(s.org.channels, 2);
    EXPECT_EQ(s.org.ranksPerChannel, 1);
    EXPECT_EQ(s.org.banksPerRank, 8);
    EXPECT_EQ(s.org.rowsPerBank, 65536);
    EXPECT_EQ(s.org.rowBufferBytes, 8192);
    EXPECT_EQ(s.timing.tRCD, 11);
    EXPECT_EQ(s.timing.tRAS, 28);
    EXPECT_DOUBLE_EQ(s.timing.tCkNs, 1.25);
    // 8 GB across two channels.
    EXPECT_EQ(s.org.capacityBytes(), 8ull << 30);
}

TEST(Spec, RefreshGeometryIsConsistent)
{
    DramSpec s = DramSpec::ddr3_1600(1);
    Cycle refs = s.timing.tREFW / s.timing.tREFI;
    EXPECT_EQ(refs, 8192u);
    EXPECT_EQ(s.org.rowsPerBank % static_cast<int>(refs), 0);
}

TEST(Spec, Ddr4PresetValidates)
{
    DramSpec s = DramSpec::ddr4_2400(1);
    EXPECT_EQ(s.org.banksPerRank, 16);
    EXPECT_GT(s.timing.tRCD, 11); // More cycles at the faster clock.
    EXPECT_NO_THROW(s.validate());
}

TEST(Spec, DerivedTimingHelpers)
{
    DramTiming t;
    EXPECT_EQ(t.tRC(), t.tRAS + t.tRP);
    EXPECT_EQ(t.writeToPre(), t.tCWL + t.tBL + t.tWR);
    EXPECT_EQ(t.writeToRead(), t.tCWL + t.tBL + t.tWTR);
    EXPECT_EQ(t.nsToCycles(13.75), 11);
    EXPECT_EQ(t.nsToCycles(8.0), 7); // 6.4 -> ceil = 7.
    EXPECT_EQ(t.msToCycles(1.0), 800000u);
}

TEST(Spec, InvalidConfigsThrow)
{
    DramSpec s = DramSpec::ddr3_1600(1);
    s.org.rowsPerBank = 1000; // not a power of two
    EXPECT_THROW(s.validate(), resilience::SimError);

    DramSpec s2 = DramSpec::ddr3_1600(1);
    s2.timing.tRAS = s2.timing.tRCD; // tRAS must exceed tRCD
    EXPECT_THROW(s2.validate(), resilience::SimError);
}

// ---------------------------------------------------------------------
// Address mapping: bijectivity property over all schemes.

class MapperProperty : public ::testing::TestWithParam<MapScheme>
{
};

TEST_P(MapperProperty, RoundTripIsIdentity)
{
    DramSpec s = DramSpec::ddr3_1600(2);
    AddressMapper mapper(s.org, GetParam());
    Rng rng(99);
    for (int i = 0; i < 20000; ++i) {
        Addr line = rng.below(mapper.numLines());
        DramAddr a = mapper.decode(line);
        EXPECT_EQ(mapper.encode(a), line);
        ASSERT_LT(a.channel, s.org.channels);
        ASSERT_LT(a.rank, s.org.ranksPerChannel);
        ASSERT_LT(a.bank, s.org.banksPerRank);
        ASSERT_LT(a.row, s.org.rowsPerBank);
        ASSERT_LT(a.col, s.org.columnsPerRow());
    }
}

TEST_P(MapperProperty, SequentialLinesChangeChannelFirst)
{
    DramSpec s = DramSpec::ddr3_1600(2);
    AddressMapper mapper(s.org, GetParam());
    // All schemes place the channel in the lowest bits.
    DramAddr a0 = mapper.decode(0);
    DramAddr a1 = mapper.decode(1);
    EXPECT_NE(a0.channel, a1.channel);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, MapperProperty,
                         ::testing::Values(MapScheme::RoBaRaCoCh,
                                           MapScheme::RoRaBaCoCh,
                                           MapScheme::RoCoBaRaCh),
                         [](const auto &info) {
                             return mapSchemeName(info.param);
                         });

TEST(Mapper, RowMajorSchemeKeepsRowTogether)
{
    DramSpec s = DramSpec::ddr3_1600(1);
    AddressMapper mapper(s.org, MapScheme::RoBaRaCoCh);
    // Lines 0..columnsPerRow-1 should fall in the same (bank, row).
    DramAddr first = mapper.decode(0);
    for (int c = 1; c < s.org.columnsPerRow(); ++c) {
        DramAddr a = mapper.decode(c);
        EXPECT_EQ(a.bank, first.bank);
        EXPECT_EQ(a.row, first.row);
        EXPECT_EQ(a.col, c);
    }
}

// ---------------------------------------------------------------------
// Bank state machine.

struct BankTest : ::testing::Test {
    DramSpec spec = DramSpec::ddr3_1600(1);
    Bank bank{spec.timing};
    EffActTiming std_t{11, 28, false};
    EffActTiming fast_t{7, 20, true};
};

TEST_F(BankTest, StartsIdle)
{
    EXPECT_EQ(bank.state(), Bank::State::Idle);
    EXPECT_EQ(bank.openRow(), -1);
    EXPECT_TRUE(bank.canIssue(CmdType::ACT, 5, 0));
    EXPECT_FALSE(bank.canIssue(CmdType::RD, 5, 0));
}

TEST_F(BankTest, ActOpensRowAndGatesColumns)
{
    bank.issue(CmdType::ACT, 42, 100, &std_t);
    EXPECT_EQ(bank.state(), Bank::State::Active);
    EXPECT_EQ(bank.openRow(), 42);
    EXPECT_FALSE(bank.canIssue(CmdType::RD, 42, 100 + 10)); // tRCD-1
    EXPECT_TRUE(bank.canIssue(CmdType::RD, 42, 100 + 11));
    EXPECT_FALSE(bank.canIssue(CmdType::RD, 43, 100 + 11)); // wrong row
}

TEST_F(BankTest, ReducedTimingActUnlocksColumnsEarlier)
{
    bank.issue(CmdType::ACT, 1, 0, &fast_t);
    EXPECT_TRUE(bank.canIssue(CmdType::RD, 1, 7));
    EXPECT_FALSE(bank.canIssue(CmdType::RD, 1, 6));
    // And precharge after the reduced tRAS.
    EXPECT_TRUE(bank.canIssue(CmdType::PRE, -1, 20));
    EXPECT_FALSE(bank.canIssue(CmdType::PRE, -1, 19));
}

TEST_F(BankTest, TrasGatesPrecharge)
{
    bank.issue(CmdType::ACT, 1, 0, &std_t);
    EXPECT_FALSE(bank.canIssue(CmdType::PRE, -1, 27));
    EXPECT_TRUE(bank.canIssue(CmdType::PRE, -1, 28));
}

TEST_F(BankTest, TrpGatesNextAct)
{
    bank.issue(CmdType::ACT, 1, 0, &std_t);
    bank.issue(CmdType::PRE, -1, 28, nullptr);
    EXPECT_EQ(bank.state(), Bank::State::Idle);
    EXPECT_FALSE(bank.canIssue(CmdType::ACT, 2, 28 + 10));
    EXPECT_TRUE(bank.canIssue(CmdType::ACT, 2, 28 + 11));
}

TEST_F(BankTest, ReadDelaysPrechargeByRtp)
{
    bank.issue(CmdType::ACT, 1, 0, &std_t);
    bank.issue(CmdType::RD, 1, 26, nullptr);
    // PRE must wait for max(tRAS, rd + tRTP) = max(28, 32).
    EXPECT_FALSE(bank.canIssue(CmdType::PRE, -1, 31));
    EXPECT_TRUE(bank.canIssue(CmdType::PRE, -1, 32));
}

TEST_F(BankTest, WriteDelaysPrechargeByWrWindow)
{
    bank.issue(CmdType::ACT, 1, 0, &std_t);
    bank.issue(CmdType::WR, 1, 11, nullptr);
    Cycle pre_ok = 11 + spec.timing.writeToPre();
    EXPECT_FALSE(bank.canIssue(CmdType::PRE, -1, pre_ok - 1));
    EXPECT_TRUE(bank.canIssue(CmdType::PRE, -1, pre_ok));
}

TEST_F(BankTest, ReadAutoPreClosesAndSchedulesAct)
{
    bank.issue(CmdType::ACT, 1, 0, &std_t);
    bank.issue(CmdType::RDA, 1, 11, nullptr);
    EXPECT_EQ(bank.state(), Bank::State::Idle);
    // Auto-pre at max(11 + tRTP, 0 + tRAS) = max(17, 28) = 28; +tRP.
    EXPECT_FALSE(bank.canIssue(CmdType::ACT, 2, 38));
    EXPECT_TRUE(bank.canIssue(CmdType::ACT, 2, 39));
}

TEST_F(BankTest, WriteAutoPreUsesWriteRecovery)
{
    bank.issue(CmdType::ACT, 1, 0, &std_t);
    bank.issue(CmdType::WRA, 1, 11, nullptr);
    // Auto-pre at max(11 + tCWL+tBL+tWR, tRAS) = max(35, 28) = 35; +tRP.
    EXPECT_FALSE(bank.canIssue(CmdType::ACT, 2, 45));
    EXPECT_TRUE(bank.canIssue(CmdType::ACT, 2, 46));
}

TEST_F(BankTest, IllegalCommandsPanic)
{
    EXPECT_THROW(bank.issue(CmdType::RD, 1, 0, nullptr), PanicError);
    bank.issue(CmdType::ACT, 1, 0, &std_t);
    EXPECT_THROW(bank.issue(CmdType::ACT, 2, 100, &std_t), PanicError);
    EXPECT_THROW(bank.issue(CmdType::RD, 9, 50, nullptr), PanicError);
}

TEST_F(BankTest, ActRequiresEffTiming)
{
    EXPECT_THROW(bank.issue(CmdType::ACT, 1, 0, nullptr), PanicError);
}

// ---------------------------------------------------------------------
// Rank constraints.

struct RankTest : ::testing::Test {
    DramSpec spec = DramSpec::ddr3_1600(1);
    Rank rank{spec.org, spec.timing};
    EffActTiming std_t{11, 28, false};

    Command
    cmd(CmdType type, int bank, int row = 0, int col = 0)
    {
        Command c;
        c.type = type;
        c.addr.bank = bank;
        c.addr.row = row;
        c.addr.col = col;
        return c;
    }
};

TEST_F(RankTest, TrrdSpacesActsAcrossBanks)
{
    rank.issue(cmd(CmdType::ACT, 0, 1), 0, &std_t);
    EXPECT_FALSE(rank.canIssue(cmd(CmdType::ACT, 1, 1), 4));
    EXPECT_TRUE(rank.canIssue(cmd(CmdType::ACT, 1, 1), 5));
}

TEST_F(RankTest, FawLimitsFourActivates)
{
    // Issue 4 ACTs at the tRRD rate: cycles 0, 5, 10, 15.
    for (int i = 0; i < 4; ++i)
        rank.issue(cmd(CmdType::ACT, i, 1), i * 5, &std_t);
    // 5th ACT must wait until cycle 0 + tFAW = 24, not 20.
    EXPECT_FALSE(rank.canIssue(cmd(CmdType::ACT, 4, 1), 20));
    EXPECT_FALSE(rank.canIssue(cmd(CmdType::ACT, 4, 1), 23));
    EXPECT_TRUE(rank.canIssue(cmd(CmdType::ACT, 4, 1), 24));
}

TEST_F(RankTest, CcdSpacesReads)
{
    rank.issue(cmd(CmdType::ACT, 0, 1), 0, &std_t);
    rank.issue(cmd(CmdType::RD, 0, 1), 11, nullptr);
    EXPECT_FALSE(rank.canIssue(cmd(CmdType::RD, 0, 1), 14));
    EXPECT_TRUE(rank.canIssue(cmd(CmdType::RD, 0, 1), 15));
}

TEST_F(RankTest, WriteToReadTurnaround)
{
    rank.issue(cmd(CmdType::ACT, 0, 1), 0, &std_t);
    rank.issue(cmd(CmdType::WR, 0, 1), 11, nullptr);
    Cycle rd_ok = 11 + spec.timing.writeToRead();
    EXPECT_FALSE(rank.canIssue(cmd(CmdType::RD, 0, 1), rd_ok - 1));
    EXPECT_TRUE(rank.canIssue(cmd(CmdType::RD, 0, 1), rd_ok));
}

TEST_F(RankTest, ReadToWriteTurnaround)
{
    rank.issue(cmd(CmdType::ACT, 0, 1), 0, &std_t);
    rank.issue(cmd(CmdType::RD, 0, 1), 11, nullptr);
    Cycle wr_ok = 11 + spec.timing.readToWrite();
    EXPECT_FALSE(rank.canIssue(cmd(CmdType::WR, 0, 1), wr_ok - 1));
    EXPECT_TRUE(rank.canIssue(cmd(CmdType::WR, 0, 1), wr_ok));
}

TEST_F(RankTest, RefRequiresAllBanksIdle)
{
    rank.issue(cmd(CmdType::ACT, 3, 1), 0, &std_t);
    EXPECT_FALSE(rank.canIssue(cmd(CmdType::REF, 0), 100));
    rank.issue(cmd(CmdType::PRE, 3), 28, nullptr);
    // Must also respect tRP after the precharge.
    EXPECT_FALSE(rank.canIssue(cmd(CmdType::REF, 0), 38));
    EXPECT_TRUE(rank.canIssue(cmd(CmdType::REF, 0), 39));
}

TEST_F(RankTest, RefBlocksEverythingForTrfc)
{
    rank.issue(cmd(CmdType::REF, 0), 0, nullptr);
    Cycle t_rfc = spec.timing.tRFC;
    EXPECT_FALSE(rank.canIssue(cmd(CmdType::ACT, 0, 1), t_rfc - 1));
    EXPECT_TRUE(rank.canIssue(cmd(CmdType::ACT, 0, 1), t_rfc));
}

TEST_F(RankTest, PreaPrechargesEveryBank)
{
    rank.issue(cmd(CmdType::ACT, 0, 1), 0, &std_t);
    rank.issue(cmd(CmdType::ACT, 1, 2), 5, &std_t);
    // PREA must wait for the later bank's tRAS (5 + 28 = 33).
    EXPECT_FALSE(rank.canIssue(cmd(CmdType::PREA, 0), 32));
    rank.issue(cmd(CmdType::PREA, 0), 33, nullptr);
    EXPECT_TRUE(rank.allBanksIdle());
}

TEST_F(RankTest, AnyBankActiveTracksState)
{
    EXPECT_FALSE(rank.anyBankActive());
    rank.issue(cmd(CmdType::ACT, 2, 7), 0, &std_t);
    EXPECT_TRUE(rank.anyBankActive());
}

// ---------------------------------------------------------------------
// Channel: cross-rank bus handover.

TEST(ChannelTest, CrossRankReadsRespectRtrs)
{
    DramSpec spec = DramSpec::ddr3_1600(1);
    spec.org.ranksPerChannel = 2;
    spec.validate();
    Channel ch(spec);
    EffActTiming std_t{11, 28, false};

    Command act0{CmdType::ACT, {}};
    act0.addr.rank = 0;
    act0.addr.row = 1;
    Command act1 = act0;
    act1.addr.rank = 1;
    ch.issue(act0, 0, &std_t);
    ch.issue(act1, 5, &std_t);

    Command rd0{CmdType::RD, {}};
    rd0.addr.rank = 0;
    rd0.addr.row = 1;
    Command rd1 = rd0;
    rd1.addr.rank = 1;
    ch.issue(rd0, 16, nullptr);
    // Data of rd0 occupies [16+11, 16+15). A read on rank 1 needs its
    // data start >= 31 + tRTRS = 33, i.e. issue >= 22. Same-rank tCCD
    // would have allowed issue at 20.
    EXPECT_FALSE(ch.canIssue(rd1, 21));
    EXPECT_TRUE(ch.canIssue(rd1, 22));
}

TEST(ChannelTest, ReadDataDoneUsesClPlusBl)
{
    DramSpec spec = DramSpec::ddr3_1600(1);
    Channel ch(spec);
    EXPECT_EQ(ch.readDataDone(100), 100u + 11 + 4);
}

// ---------------------------------------------------------------------
// Oracle: each rule detects its violation and accepts legal traces.

struct OracleTest : ::testing::Test {
    DramSpec spec = DramSpec::ddr3_1600(1);
    TimingOracle oracle{spec};
    EffActTiming std_t{11, 28, false};

    Command
    cmd(CmdType type, int bank, int row = 0)
    {
        Command c;
        c.type = type;
        c.addr.bank = bank;
        c.addr.row = row;
        return c;
    }
};

TEST_F(OracleTest, CleanTracePasses)
{
    oracle.record(cmd(CmdType::ACT, 0, 5), 0, &std_t);
    oracle.record(cmd(CmdType::RD, 0, 5), 11, nullptr);
    oracle.record(cmd(CmdType::PRE, 0), 28, nullptr);
    oracle.record(cmd(CmdType::ACT, 0, 6), 39, &std_t);
    EXPECT_TRUE(oracle.verify().empty());
}

TEST_F(OracleTest, CatchesEarlyRead)
{
    oracle.record(cmd(CmdType::ACT, 0, 5), 0, &std_t);
    oracle.record(cmd(CmdType::RD, 0, 5), 10, nullptr);
    auto v = oracle.verify();
    ASSERT_FALSE(v.empty());
    EXPECT_NE(v[0].find("tRCD"), std::string::npos);
}

TEST_F(OracleTest, CatchesEarlyPrecharge)
{
    oracle.record(cmd(CmdType::ACT, 0, 5), 0, &std_t);
    oracle.record(cmd(CmdType::PRE, 0), 27, nullptr);
    auto v = oracle.verify();
    ASSERT_FALSE(v.empty());
    EXPECT_NE(v[0].find("tRAS"), std::string::npos);
}

TEST_F(OracleTest, ReducedTimingIsAcceptedWhenHonored)
{
    EffActTiming fast{7, 20, true};
    oracle.record(cmd(CmdType::ACT, 0, 5), 0, &fast);
    oracle.record(cmd(CmdType::RD, 0, 5), 7, nullptr);
    oracle.record(cmd(CmdType::PRE, 0), 20, nullptr);
    EXPECT_TRUE(oracle.verify().empty());
}

TEST_F(OracleTest, ReducedTimingViolationCaught)
{
    EffActTiming fast{7, 20, true};
    oracle.record(cmd(CmdType::ACT, 0, 5), 0, &fast);
    oracle.record(cmd(CmdType::RD, 0, 5), 6, nullptr); // < reduced tRCD
    EXPECT_FALSE(oracle.verify().empty());
}

TEST_F(OracleTest, CatchesWrongRowColumnCommand)
{
    oracle.record(cmd(CmdType::ACT, 0, 5), 0, &std_t);
    oracle.record(cmd(CmdType::RD, 0, 6), 11, nullptr);
    auto v = oracle.verify();
    ASSERT_FALSE(v.empty());
    EXPECT_NE(v[0].find("wrong row"), std::string::npos);
}

TEST_F(OracleTest, CatchesDoubleActivate)
{
    oracle.record(cmd(CmdType::ACT, 0, 5), 0, &std_t);
    oracle.record(cmd(CmdType::ACT, 0, 6), 100, &std_t);
    EXPECT_FALSE(oracle.verify().empty());
}

TEST_F(OracleTest, CatchesTrrdViolation)
{
    oracle.record(cmd(CmdType::ACT, 0, 5), 0, &std_t);
    oracle.record(cmd(CmdType::ACT, 1, 5), 3, &std_t);
    auto v = oracle.verify();
    ASSERT_FALSE(v.empty());
    EXPECT_NE(v[0].find("tRRD"), std::string::npos);
}

TEST_F(OracleTest, CatchesTfawViolation)
{
    oracle.record(cmd(CmdType::ACT, 0, 1), 0, &std_t);
    oracle.record(cmd(CmdType::ACT, 1, 1), 5, &std_t);
    oracle.record(cmd(CmdType::ACT, 2, 1), 10, &std_t);
    oracle.record(cmd(CmdType::ACT, 3, 1), 15, &std_t);
    oracle.record(cmd(CmdType::ACT, 4, 1), 20, &std_t); // < 0 + 24
    auto v = oracle.verify();
    ASSERT_FALSE(v.empty());
    EXPECT_NE(v[0].find("tFAW"), std::string::npos);
}

TEST_F(OracleTest, CatchesRefWithOpenBank)
{
    oracle.record(cmd(CmdType::ACT, 0, 1), 0, &std_t);
    oracle.record(cmd(CmdType::REF, 0), 100, nullptr);
    EXPECT_FALSE(oracle.verify().empty());
}

TEST_F(OracleTest, CatchesCommandInsideTrfc)
{
    oracle.record(cmd(CmdType::REF, 0), 0, nullptr);
    oracle.record(cmd(CmdType::ACT, 0, 1), 10, &std_t);
    EXPECT_FALSE(oracle.verify().empty());
}

TEST_F(OracleTest, CatchesSlowerThanStandardTiming)
{
    EffActTiming bogus{12, 29, false};
    oracle.record(cmd(CmdType::ACT, 0, 1), 0, &bogus);
    EXPECT_FALSE(oracle.verify().empty());
}

TEST_F(OracleTest, AutoPrechargeTimingChecked)
{
    oracle.record(cmd(CmdType::ACT, 0, 1), 0, &std_t);
    oracle.record(cmd(CmdType::RDA, 0, 1), 11, nullptr);
    // Implicit pre at max(11+tRTP, tRAS) = 28; ACT before 39 illegal.
    oracle.record(cmd(CmdType::ACT, 0, 2), 38, &std_t);
    auto v = oracle.verify();
    ASSERT_FALSE(v.empty());
    EXPECT_NE(v[0].find("tRP"), std::string::npos);
}

TEST_F(OracleTest, UnsortedTraceRejected)
{
    oracle.record(cmd(CmdType::ACT, 0, 1), 100, &std_t);
    oracle.record(cmd(CmdType::PRE, 0), 50, nullptr);
    EXPECT_FALSE(oracle.verify().empty());
}

// Property: the device model itself never lets an illegal sequence
// through — drive random legal-when-possible traffic and verify. Along
// the way, check the readiness rule the FR-FCFS scan relies on: for
// the command class the scan would consider for a bank (ACT when idle,
// PRE or a column command to the open row when active), max(rank base,
// Bank::earliest()) <= now exactly when Channel::canIssue says so. The
// traffic runs on two ranks, leans toward ACT/PRE so tRRD and tFAW
// bind, and refreshes each rank now and then.
TEST(DeviceOracleProperty, RandomTrafficThroughChannelIsClean)
{
    DramSpec spec = DramSpec::ddr3_1600(1);
    spec.org.ranksPerChannel = 2;
    spec.validate();
    Channel ch(spec);
    TimingOracle oracle(spec);
    Rng rng(2024);
    EffActTiming std_t{11, 28, false};
    EffActTiming fast{7, 20, true};

    bool ref_due[2] = {false, false};
    int refs = 0;
    int act_gated = 0; // Bank ready, ACT held by the rank (tRRD/tFAW).
    int bus_gated = 0; // Rank ready, column held by the bus (tRTRS).
    Cycle now = 0;
    int issued = 0;
    while (issued < 5000) {
        const int r = static_cast<int>(rng.below(2));
        const Rank &rank = ch.rank(r);

        // A rank that falls due for refresh takes no scan commands
        // (the controller's scan skips it) until PREA and REF issue.
        if (!ref_due[r] && rng.chance(0.002))
            ref_due[r] = true;
        if (ref_due[r]) {
            Command ref;
            ref.addr.rank = r;
            ref.type = CmdType::REF;
            Command prea = ref;
            prea.type = CmdType::PREA;
            if (ch.canIssue(ref, now)) {
                ch.issue(ref, now, nullptr);
                oracle.record(ref, now, nullptr);
                ref_due[r] = false;
                ++refs;
                ++issued;
            } else if (!rank.allBanksIdle() && ch.canIssue(prea, now)) {
                ch.issue(prea, now, nullptr);
                oracle.record(prea, now, nullptr);
                ++issued;
            }
        }

        Command c;
        c.addr.rank = r;
        c.addr.bank = static_cast<int>(rng.below(8));
        const Bank &b = rank.bank(c.addr.bank);
        Cycle base = 0;
        if (b.state() == Bank::State::Idle) {
            c.type = CmdType::ACT;
            c.addr.row = static_cast<int>(rng.below(16));
            base = rank.actEarliestBase();
        } else if (rng.chance(0.6)) {
            c.type = CmdType::PRE;
            c.addr.row = b.openRow();
            base = rank.preEarliestBase();
        } else {
            const CmdType cols[] = {CmdType::RD, CmdType::WR, CmdType::RDA,
                                    CmdType::WRA};
            c.type = cols[rng.below(4)];
            c.addr.row = b.openRow();
            const Cycle rank_base =
                rank.columnEarliestBase(isWriteCmd(c.type));
            base = std::max(rank_base,
                            ch.busEarliestBase(r, isReadCmd(c.type)));
            if (std::max(rank_base, b.earliest(c.type)) <= now &&
                base > now)
                ++bus_gated;
        }
        const bool legal = ch.canIssue(c, now);
        ASSERT_EQ(std::max(base, b.earliest(c.type)) <= now, legal)
            << cmdName(c.type) << " rank " << r << " bank " << c.addr.bank
            << " at cycle " << now;
        if (c.type == CmdType::ACT && !legal &&
            std::max(rank.preEarliestBase(), b.earliest(c.type)) <= now)
            ++act_gated;

        if (legal && !ref_due[r]) {
            const EffActTiming *eff = nullptr;
            if (c.type == CmdType::ACT)
                eff = rng.chance(0.5) ? &fast : &std_t;
            ch.issue(c, now, eff);
            oracle.record(c, now, eff);
            ++issued;
        }
        now += rng.below(4);
    }
    auto v = oracle.verify();
    EXPECT_TRUE(v.empty()) << (v.empty() ? "" : v[0]);
    // The run exercised what the rule has to get right.
    EXPECT_GT(refs, 0);
    EXPECT_GT(act_gated, 0);
    EXPECT_GT(bus_gated, 0);
}

} // namespace
} // namespace ccsim::dram
