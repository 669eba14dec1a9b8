#include "noc/axi.hpp"
#include "noc/link.hpp"
#include "noc/ring.hpp"

#include <gtest/gtest.h>

namespace hhpim::noc {
namespace {

using energy::EnergyLedger;

TEST(Link, SerializationPlusLatency) {
  EnergyLedger ledger;
  Link link{LinkConfig{"l", 8.0, Time::ns(2.0), Energy::pj(0.15)}, &ledger};
  const auto r = link.transfer(Time::zero(), 80);
  EXPECT_EQ(r.start, Time::zero());
  EXPECT_EQ(r.complete, Time::ns(10.0 + 2.0));
  EXPECT_NEAR(r.energy.as_pj(), 12.0, 0.01);
  EXPECT_EQ(link.bytes_moved(), 80u);
}

TEST(Link, BackToBackTransfersQueueOnSerialization) {
  EnergyLedger ledger;
  Link link{LinkConfig{"l", 8.0, Time::ns(2.0), Energy::pj(0.15)}, &ledger};
  const auto r1 = link.transfer(Time::zero(), 80);
  const auto r2 = link.transfer(Time::zero(), 80);
  // Second transfer serializes after the first's payload (latency pipelines).
  EXPECT_EQ(r2.start, Time::ns(10.0));
  EXPECT_EQ(r2.complete, Time::ns(22.0));
  (void)r1;
}

TEST(Axi, BeatsAndBursts) {
  EnergyLedger ledger;
  AxiChannel axi{AxiConfig{"axi", 8, Time::ns(1.0), 4, 256, Energy::pj(1.2)}, &ledger};
  // 4096 bytes = 512 beats = 2 bursts of 256: 512 data + 2*4 addr cycles.
  const auto r = axi.transfer(Time::zero(), 4096);
  EXPECT_EQ(r.bursts, 2u);
  EXPECT_EQ(r.complete, Time::ns(520.0));
  EXPECT_NEAR(r.energy.as_pj(), 512 * 1.2, 0.1);
}

TEST(Axi, PartialBeatRoundsUp) {
  EnergyLedger ledger;
  AxiChannel axi{AxiConfig{"axi", 8, Time::ns(1.0), 4, 256, Energy::pj(1.2)}, &ledger};
  const auto r = axi.transfer(Time::zero(), 9);  // 2 beats, 1 burst
  EXPECT_EQ(r.bursts, 1u);
  EXPECT_EQ(r.complete, Time::ns(6.0));
}

TEST(Ring, ShortestPathHopCount) {
  EnergyLedger ledger;
  Ring ring{RingConfig{"r", 6, Time::ns(1.0), 8.0, Energy::pj(0.08)}, &ledger};
  EXPECT_EQ(ring.hops(0, 1), 1u);
  EXPECT_EQ(ring.hops(0, 3), 3u);
  EXPECT_EQ(ring.hops(0, 5), 1u);  // wraps the short way
  EXPECT_EQ(ring.hops(4, 1), 3u);
  EXPECT_THROW((void)ring.hops(0, 6), std::out_of_range);
}

TEST(Ring, TransferTimingIncludesHops) {
  EnergyLedger ledger;
  Ring ring{RingConfig{"r", 4, Time::ns(1.0), 8.0, Energy::pj(0.08)}, &ledger};
  const auto r = ring.send(Time::zero(), 0, 2, 64);  // 2 hops
  EXPECT_EQ(r.complete, Time::ns(8.0 + 2.0));
  EXPECT_NEAR(r.energy.as_pj(), 64 * 2 * 0.08, 0.01);
  EXPECT_EQ(ring.messages(), 1u);
}

TEST(Ring, OppositeDirectionsDoNotContend) {
  EnergyLedger ledger;
  Ring ring{RingConfig{"r", 4, Time::ns(1.0), 8.0, Energy::pj(0.08)}, &ledger};
  const auto cw = ring.send(Time::zero(), 0, 1, 800);   // clockwise
  const auto ccw = ring.send(Time::zero(), 0, 3, 800);  // counter-clockwise
  EXPECT_EQ(cw.start, Time::zero());
  EXPECT_EQ(ccw.start, Time::zero());  // separate channel, no queueing
}

TEST(Ring, SameDirectionContends) {
  EnergyLedger ledger;
  Ring ring{RingConfig{"r", 4, Time::ns(1.0), 8.0, Energy::pj(0.08)}, &ledger};
  const auto first = ring.send(Time::zero(), 0, 1, 800);
  const auto second = ring.send(Time::zero(), 1, 2, 800);  // same direction
  EXPECT_EQ(second.start, Time::ns(100.0));
  (void)first;
}

TEST(Ring, TooSmallRejected) {
  EnergyLedger ledger;
  EXPECT_THROW(Ring(RingConfig{"r", 1, Time::ns(1.0), 8.0, Energy::pj(0.08)}, &ledger),
               std::invalid_argument);
}

}  // namespace
}  // namespace hhpim::noc
