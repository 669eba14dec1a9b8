// Host-core demo: assembles a small RISC-V driver program that submits PIM
// instructions through the memory-mapped instruction-queue port (the paper's
// Rocket-over-AXI path), runs it on the decoded-block engine
// (riscv::BlockEngine — the same core the host-in-the-loop fleet path uses),
// and reports what the PIM cluster did.
//
//   --engine=interp   run on the one-instruction-at-a-time riscv::Cpu instead
//   --iters=N         checksum-loop iterations in the driver (default 200000)
//   --stats           print block-cache counters and MIPS
#include <chrono>
#include <cstdio>
#include <exception>
#include <string>

#include "common/cli.hpp"
#include "isa/assembler.hpp"
#include "isa/instruction.hpp"
#include "pim/cluster.hpp"
#include "riscv/bus.hpp"
#include "riscv/cpu.hpp"
#include "riscv/engine.hpp"
#include "riscv/rv_asm.hpp"

using namespace hhpim;

int main(int argc, char** argv) try {
  const Cli cli{argc, argv};
  cli.require_known({"engine", "iters", "stats"});
  const bool use_interp = cli.get("engine", "blocks") == "interp";
  const long iters = static_cast<long>(cli.get_int("iters", 200'000));
  const bool want_stats = cli.has("stats");

  energy::EnergyLedger ledger;
  const auto spec = energy::PowerSpec::paper_45nm();
  pim::Cluster cluster{
      pim::ClusterConfig{"hp", energy::ClusterKind::kHighPerformance, 4, 64 * 1024,
                         64 * 1024},
      spec, &ledger};

  riscv::Ram ram{64 * 1024};
  riscv::Console console;
  Time pim_time = Time::zero();
  riscv::PimPort port{
      [&](std::uint32_t word) {
        const auto inst = isa::decode(word);
        return inst.has_value() && cluster.controller().queue().push(*inst);
      },
      [&] {
        auto& q = cluster.controller().queue();
        return (q.full() ? 1u : 0u) | (q.empty() ? 2u : 0u);
      },
      [&] {
        std::vector<isa::Instruction> program;
        while (auto inst = cluster.controller().queue().pop()) program.push_back(*inst);
        std::printf("doorbell -> controller runs:\n%s",
                    isa::disassemble(program).c_str());
        cluster.controller().run_program(pim_time, program);
        pim_time = cluster.busy_until();
      }};
  riscv::Bus bus;
  bus.map(0x0000'0000, 64 * 1024, &ram);
  bus.map(0x1000'0000, 0x100, &console);
  bus.map(0x4000'0000, 0x100, &port);

  // The driver program: announce itself on the console, hash a descriptor
  // checksum (the busy loop that makes --stats interesting), push a
  // power-up + two MAC bursts + halt sequence, ring the doorbell.
  const std::uint32_t pwron = isa::encode(isa::make_power(0x0f, isa::MemSel::kSram, true));
  const std::uint32_t mac_sram = isa::encode(isa::make_mac(0x0f, isa::MemSel::kSram, 4096));
  const std::uint32_t mac_mram = isa::encode(isa::make_mac(0x03, isa::MemSel::kMram, 1024));
  const std::uint32_t halt = isa::encode(isa::make_halt());

  const std::string source = R"(
      li s0, 0x10000000   # console
      li s1, 0x40000000   # PIM port
      li t0, 80           # 'P'
      sb t0, 0(s0)
      li t0, 73           # 'I'
      sb t0, 0(s0)
      li t0, 77           # 'M'
      sb t0, 0(s0)
      # descriptor checksum loop: a1 = iteration count
      li t0, 0
      li t1, 0x12345
    hash:
      slli t2, t1, 5
      srli t3, t1, 7
      xor  t1, t2, t3
      add  t1, t1, t0
      addi t0, t0, 1
      blt  t0, a1, hash
      li t1, )" + std::to_string(pwron) + R"(
      sw t1, 0(s1)
      li t1, )" + std::to_string(mac_sram) + R"(
      sw t1, 0(s1)
      li t1, )" + std::to_string(mac_mram) + R"(
      sw t1, 0(s1)
      li t1, )" + std::to_string(halt) + R"(
      sw t1, 0(s1)
      sw zero, 8(s1)      # doorbell
      lw a0, 4(s1)        # status
      ecall
  )";

  const auto assembled = riscv::assemble_rv32(source);
  if (std::holds_alternative<riscv::RvAsmError>(assembled)) {
    const auto& e = std::get<riscv::RvAsmError>(assembled);
    std::fprintf(stderr, "asm error at line %zu: %s\n", e.line, e.message.c_str());
    return 1;
  }
  const auto& words = std::get<std::vector<std::uint32_t>>(assembled);
  for (std::size_t i = 0; i < words.size(); ++i) {
    ram.store(static_cast<std::uint32_t>(i * 4), 4, words[i]);
  }

  riscv::Cpu cpu{&bus};
  riscv::BlockEngine engine{&bus};
  if (use_interp) {
    cpu.set_reg(11, static_cast<std::uint32_t>(iters));  // a1
  } else {
    engine.set_reg(11, static_cast<std::uint32_t>(iters));
  }

  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t retired =
      use_interp ? cpu.run(~std::uint64_t{0}) : engine.run(~std::uint64_t{0});
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  const std::uint32_t status = use_interp ? cpu.reg(10) : engine.reg(10);

  std::printf("\ncore (%s): %llu instructions retired, console: \"%s\", status=0x%x\n",
              use_interp ? "interp" : "block engine",
              static_cast<unsigned long long>(retired), console.output().c_str(),
              status);
  if (want_stats) {
    const double mips = wall_ms > 0.0
                            ? static_cast<double>(retired) / (wall_ms * 1e3)
                            : 0.0;
    std::printf("stats: %.2f ms, %.1f MIPS\n", wall_ms, mips);
    if (!use_interp) {
      const riscv::EngineStats& s = engine.stats();
      std::printf(
          "stats: %llu blocks compiled, %llu block hits, %llu invalidations, "
          "%llu cycles (CycleModel)\n",
          static_cast<unsigned long long>(s.blocks_compiled),
          static_cast<unsigned long long>(s.block_hits),
          static_cast<unsigned long long>(s.invalidations),
          static_cast<unsigned long long>(engine.cycles()));
    }
  }
  for (std::size_t i = 0; i < cluster.module_count(); ++i) {
    std::printf("module %zu: %llu MACs, busy until %s\n", i,
                static_cast<unsigned long long>(cluster.module(i).total_macs()),
                cluster.module(i).busy_until().to_string().c_str());
  }
  cluster.settle(pim_time);
  std::printf("PIM energy: %s\n", ledger.total().to_string().c_str());
  return 0;
} catch (const std::exception& e) {
  // Bad input (an unknown flag, a malformed value) fails with its cause.
  std::fprintf(stderr, "riscv_host_demo: %s\n", e.what());
  return 2;
}
