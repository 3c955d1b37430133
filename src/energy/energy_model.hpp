// Energy accounting model.
//
// Constants follow the paper (§1, §2.1), themselves from Han et al. 2016
// (EIE), for a 45 nm process:
//   * 32-bit DRAM access:        640 pJ
//   * 32-bit float operation:    0.9 pJ   (=> DRAM / FLOP ~ 711x, "over 700x")
//   * one regeneration:          6 int ops + 1 float op ~ 1.5 pJ
//     (=> DRAM / regen ~ 427x), the paper's price for a xorshift draw; the
//     implemented counter hash (rng::indexed_u32) spends more integer ops
//     per weight, counted in docs/ALGORITHM.md
//
// TrafficCounter instances are threaded through the DropBack optimizer and
// the sparse inference path to tally accesses; EnergyReport turns tallies
// into joules and the ratios the paper quotes.
#pragma once

#include <cstdint>
#include <string>

namespace dropback::energy {

struct EnergyConstants {
  double dram_access_pj = 640.0;  ///< one 32-bit off-chip access
  double float_op_pj = 0.9;       ///< one 32-bit float operation
  double int_op_pj = 0.1;         ///< one 32-bit integer operation
  /// Energy of one regeneration as the paper prices it (6 int + 1 float ops).
  double regen_pj() const { return 6.0 * int_op_pj + 1.0 * float_op_pj; }
  /// The paper's headline ratios.
  double dram_vs_flop() const { return dram_access_pj / float_op_pj; }
  double dram_vs_regen() const { return dram_access_pj / regen_pj(); }
};

/// Tallies of memory / compute events during training or inference.
struct TrafficCounter {
  std::uint64_t dram_reads = 0;    ///< weight values read from off-chip
  std::uint64_t dram_writes = 0;   ///< weight values written off-chip
  std::uint64_t regens = 0;        ///< initialization values regenerated
  std::uint64_t float_ops = 0;     ///< compute FLOPs (optional, coarse)

  void reset() { *this = TrafficCounter{}; }

  TrafficCounter& operator+=(const TrafficCounter& o) {
    dram_reads += o.dram_reads;
    dram_writes += o.dram_writes;
    regens += o.regens;
    float_ops += o.float_ops;
    return *this;
  }

  /// Total modeled energy in picojoules.
  double total_pj(const EnergyConstants& c = {}) const;

  /// Energy if every regen had been a DRAM read instead (dense baseline).
  double dense_equivalent_pj(const EnergyConstants& c = {}) const;

  std::string report(const EnergyConstants& c = {}) const;
};

}  // namespace dropback::energy
