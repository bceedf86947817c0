// Raw-stream measurement harnesses: caller-driven requestor ports stream
// prepared AR bursts through a built system and the harness reports
// read-bus utilization. Two measurements share the one stream master:
//
//   * Parameter sensitivity (paper §III-E, Figs. 5a/5b): one ideal
//     requestor issues continuous pack read bursts of length 256 straight
//     into the adapter, sweeping element size, index size and bank count.
//     Decoupling queues are deepened to 32 "to avoid bottlenecks unrelated
//     to the analysis", as in the paper.
//   * Channel scaling (the fig10 bench's engine): M requestors stream
//     disjoint contiguous regions through the channel-interleaved fabric
//     and the aggregate read utilization — every channel link's payload
//     summed against ONE link's capacity — is recorded together with its
//     per-channel slices. With granule-sized bursts each master's stream
//     round-robins the channels, so aggregate utilization scales with
//     min(masters, channels) until the DRAM backends saturate.
//
// Both run on a 256-bit bus. The requestor is a sim::Component (not a
// run_until side effect), so the gated kernel treats it like any other
// master and the sweep points run unattended.
#pragma once

#include <cstdint>
#include <vector>

#include "mem/dram_timing.hpp"

namespace axipack::sys {

struct SensitivityConfig {
  unsigned banks = 17;        ///< 0 = ideal (conflict-free) memory
  unsigned elem_bits = 32;    ///< 32..256
  unsigned index_bits = 32;   ///< 8/16/32 (indirect only)
  bool indirect = false;
  std::int64_t stride_elems = 1;  ///< element stride (strided only)
  unsigned queue_depth = 32;
  unsigned idx_window_lines = 8;  ///< indirect index prefetch window
  /// >0 enables the index coalescing unit with this pending-table size
  /// (indirect only; 0 keeps the plain shared-lane indirect path).
  std::size_t coalesce_entries = 0;
  unsigned burst_beats = 256;
  unsigned num_bursts = 8;
  bool naive_kernel = false;  ///< equivalence testing: disable gating
};

struct SensitivityResult {
  double r_util = 0.0;
  std::uint64_t cycles = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t bank_conflict_losses = 0;
};

/// Runs the configured read stream to completion and reports utilization.
SensitivityResult measure_read_utilization(const SensitivityConfig& cfg);

struct ChannelScalingConfig {
  unsigned channels = 1;   ///< power of two in [1, 64]
  unsigned masters = 8;    ///< concurrent streaming requestors
  mem::DramMapping mapping = mem::DramMapping::permuted;
  std::uint64_t bytes_per_master = 256 * 1024;  ///< stream length each
  bool naive_kernel = false;  ///< equivalence testing: disable gating
};

struct ChannelScalingResult {
  /// Sum of all channel links' R payload over cycles * one link's
  /// capacity; exceeds 1.0 once more than one channel streams.
  double agg_r_util = 0.0;
  std::uint64_t cycles = 0;
  std::uint64_t payload_bytes = 0;  ///< drained at the masters
  std::vector<double> per_channel_r_util;
  std::vector<std::uint64_t> per_channel_row_hits;
  std::vector<std::uint64_t> per_channel_row_misses;
};

/// Streams every master's region to completion and reports utilization.
ChannelScalingResult measure_channel_scaling(const ChannelScalingConfig& cfg);

}  // namespace axipack::sys
