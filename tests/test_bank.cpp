#include "mem/bank.hpp"

#include <gtest/gtest.h>

namespace hhpim::mem {
namespace {

using energy::Activity;
using energy::ClusterKind;
using energy::EnergyLedger;
using energy::MemoryKind;
using energy::PowerSpec;
using namespace hhpim::literals;

class BankTest : public ::testing::Test {
 protected:
  PowerSpec spec = PowerSpec::paper_45nm();
  EnergyLedger ledger;
};

TEST_F(BankTest, TimedReadMatchesTableIII) {
  Bank sram = make_sram(spec, ClusterKind::kHighPerformance, "s", 64 * 1024, &ledger);
  sram.power_on(Time::zero());
  const auto r = sram.read(Time::zero(), 0, 1, nullptr);
  EXPECT_EQ(r.complete - r.start, Time::ns(1.12));
  EXPECT_NEAR(r.energy.as_pj(), 508.93 * 1.12, 0.01);
}

TEST_F(BankTest, BackToBackAccessesQueue) {
  Bank mram = make_mram(spec, ClusterKind::kLowPower, "m", 64 * 1024, &ledger);
  mram.power_on(Time::zero());
  const auto r1 = mram.read(Time::zero(), 0, 1, nullptr);
  const auto r2 = mram.read(Time::zero(), 1, 1, nullptr);  // queued behind r1
  EXPECT_EQ(r2.start, r1.complete);
  EXPECT_EQ(r2.complete, Time::ns(2 * 2.96));
}

TEST_F(BankTest, BurstReadScalesLinear) {
  Bank sram = make_sram(spec, ClusterKind::kLowPower, "s", 64 * 1024, &ledger);
  sram.power_on(Time::zero());
  const auto r = sram.read(Time::zero(), 0, 100, nullptr);
  EXPECT_EQ(r.complete, Time::ns(141.0));
  EXPECT_EQ(sram.read_count(), 100u);
}

TEST_F(BankTest, WriteStoresData) {
  Bank sram = make_sram(spec, ClusterKind::kHighPerformance, "s", 1024, &ledger);
  sram.power_on(Time::zero());
  const std::uint8_t data[4] = {1, 2, 3, 4};
  sram.write(Time::zero(), 8, 4, data);
  std::uint8_t out[4] = {};
  sram.read(Time::ns(100), 8, 4, out);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[3], 4);
  EXPECT_TRUE(sram.data_valid());
}

TEST_F(BankTest, OutOfRangeThrows) {
  Bank sram = make_sram(spec, ClusterKind::kHighPerformance, "s", 64, &ledger);
  sram.power_on(Time::zero());
  EXPECT_THROW(sram.read(Time::zero(), 64, 1, nullptr), std::out_of_range);
  EXPECT_THROW(sram.write(Time::zero(), 60, 5, nullptr), std::out_of_range);
  EXPECT_THROW((void)sram.peek(64), std::out_of_range);
}

TEST_F(BankTest, AccessWhileGatedThrows) {
  Bank sram = make_sram(spec, ClusterKind::kHighPerformance, "s", 64, &ledger);
  EXPECT_THROW(sram.read(Time::zero(), 0, 1, nullptr), std::logic_error);
}

TEST_F(BankTest, SramLosesDataOnGating) {
  Bank sram = make_sram(spec, ClusterKind::kHighPerformance, "s", 64, &ledger);
  sram.power_on(Time::zero());
  sram.poke(0, 42);
  sram.power_off(1_ns);
  sram.power_on(2_ns);
  EXPECT_FALSE(sram.data_valid());
  EXPECT_EQ(sram.peek(0), 0);  // contents cleared
}

TEST_F(BankTest, MramRetainsDataAcrossGating) {
  Bank mram = make_mram(spec, ClusterKind::kHighPerformance, "m", 64, &ledger);
  mram.power_on(Time::zero());
  mram.poke(0, 42);
  mram.power_off(1_ns);
  mram.power_on(2_ns);
  EXPECT_TRUE(mram.data_valid());
  EXPECT_EQ(mram.peek(0), 42);
}

TEST_F(BankTest, LeakageScalesWithCapacity) {
  Bank b64 = make_sram(spec, ClusterKind::kHighPerformance, "a", 64 * 1024, &ledger);
  Bank b128 = make_sram(spec, ClusterKind::kHighPerformance, "b", 128 * 1024, &ledger);
  EXPECT_DOUBLE_EQ(b64.leakage_power().as_mw(), 23.29);
  EXPECT_DOUBLE_EQ(b128.leakage_power().as_mw(), 46.58);
}

TEST_F(BankTest, LeakageChargedOnlyWhilePowered) {
  Bank sram = make_sram(spec, ClusterKind::kHighPerformance, "s", 64 * 1024, &ledger);
  sram.power_on(Time::zero());
  sram.power_off(Time::ns(10));
  sram.settle(Time::ns(1000));
  // 23.29 mW * 10 ns.
  EXPECT_NEAR(ledger.total(Activity::kLeakage).as_pj(), 232.9, 0.01);
}

TEST_F(BankTest, SubBankGatingPowersOnlyNeededBanks) {
  Bank sram = make_sram(spec, ClusterKind::kHighPerformance, "s", 128 * 1024, &ledger);
  EXPECT_EQ(sram.subbank_count(), 8u);  // 128 kB / 16 kB sub-arrays
  // 10 kB of weights -> one 16 kB sub-array powered.
  sram.set_active_bytes(10 * 1024, Time::zero());
  EXPECT_EQ(sram.active_bytes(), 16u * 1024);
  sram.settle(Time::ns(10));
  // Leakage: 46.58 mW * (16/128) for 10 ns.
  EXPECT_NEAR(ledger.total(Activity::kLeakage).as_pj(), 46.58 * 16.0 / 128.0 * 10.0, 0.01);
  // Zero bytes gates the macro entirely.
  sram.set_active_bytes(0, Time::ns(10));
  EXPECT_FALSE(sram.is_on());
}

TEST_F(BankTest, SubBankGatingFullCapacity) {
  Bank sram = make_sram(spec, ClusterKind::kHighPerformance, "s", 128 * 1024, &ledger);
  sram.set_active_bytes(127 * 1024, Time::zero());
  EXPECT_EQ(sram.active_bytes(), 128u * 1024);
  sram.settle(Time::ns(10));
  EXPECT_NEAR(ledger.total(Activity::kLeakage).as_pj(), 465.8, 0.01);
}

TEST_F(BankTest, ChargeOnlyAccountingSkipsTimeline) {
  Bank sram = make_sram(spec, ClusterKind::kHighPerformance, "s", 64, &ledger);
  sram.power_on(Time::zero());
  const Energy e = sram.charge_reads(10);
  EXPECT_NEAR(e.as_pj(), 10 * 508.93 * 1.12, 0.1);
  EXPECT_EQ(sram.busy_until(), Time::zero());  // timeline untouched
  EXPECT_EQ(sram.read_count(), 10u);
  EXPECT_DOUBLE_EQ(sram.dynamic_energy().as_pj(), e.as_pj());
}

TEST_F(BankTest, UnalignedAccessRejectedForWideWords) {
  BankConfig c;
  c.name = "w4";
  c.word_bytes = 4;
  c.capacity_bytes = 64;
  c.timing = spec.hp.sram_timing;
  c.power = spec.hp.sram_power;
  Bank b{c, &ledger};
  b.power_on(Time::zero());
  EXPECT_THROW(b.read(Time::zero(), 2, 1, nullptr), std::out_of_range);
  EXPECT_NO_THROW(b.read(Time::zero(), 4, 1, nullptr));
}

}  // namespace
}  // namespace hhpim::mem
