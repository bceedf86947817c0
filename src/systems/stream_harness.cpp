#include "systems/stream_harness.hpp"

#include <cassert>
#include <memory>
#include <string>
#include <vector>

#include "axi/burst.hpp"
#include "axi/types.hpp"
#include "systems/builder.hpp"
#include "systems/system.hpp"
#include "util/rng.hpp"

namespace axipack::sys {

namespace {

constexpr std::uint64_t kBase = 0x8000'0000ull;
constexpr unsigned kBusBytes = 32;
/// Seed of the sensitivity harness's random index stream.
constexpr std::uint64_t kIndexSeed = 1;
/// Channel interleave granularity of the channel-scaling fabric.
constexpr std::uint64_t kGranuleBytes = 4096;

/// The ideal requestor of §III-E as a gate-safe component: pushes the
/// prepared AR stream (one request per cycle, as AR-channel handshaking
/// allows) and drains/accounts R beats. Quiescent once all requests are
/// out — from then on only R traffic (subscribed) re-activates it.
class StreamRequestor final : public sim::Component {
 public:
  StreamRequestor(sim::Kernel& k, axi::AxiPort& port,
                  std::vector<axi::AxiAr> ars)
      : port_(port), ars_(std::move(ars)) {
    for (const axi::AxiAr& ar : ars_) beats_left_ += ar.beats();
    k.add(*this);
    k.subscribe(*this, port_.r);
  }

  void tick() override {
    if (next_ar_ < ars_.size() && port_.ar.try_push(ars_[next_ar_])) {
      ++next_ar_;
    }
    while (const auto beat = port_.r.try_pop()) {
      payload_bytes_ += beat->useful_bytes;
      --beats_left_;
    }
  }

  bool quiescent() const override { return next_ar_ >= ars_.size(); }

  bool done() const { return beats_left_ == 0; }
  std::uint64_t payload_bytes() const { return payload_bytes_; }

 private:
  axi::AxiPort& port_;
  std::vector<axi::AxiAr> ars_;
  std::size_t next_ar_ = 0;
  std::uint64_t beats_left_ = 0;
  std::uint64_t payload_bytes_ = 0;
};

/// Drives one StreamRequestor per (port, AR stream) pair until every
/// stream's R beats are drained; returns the total payload drained. The
/// done predicate is a pure observation, so idle stretches fast-forward.
std::uint64_t drain_streams(System& system, const std::vector<MasterId>& ports,
                            std::vector<std::vector<axi::AxiAr>> streams,
                            sim::Cycle max_cycles) {
  sim::Kernel& kernel = system.kernel();
  std::vector<std::unique_ptr<StreamRequestor>> drivers;
  drivers.reserve(ports.size());
  for (std::size_t i = 0; i < ports.size(); ++i) {
    drivers.push_back(std::make_unique<StreamRequestor>(
        kernel, system.master_port(ports[i]), std::move(streams[i])));
  }
  kernel.run_until(
      [&] {
        for (const auto& d : drivers) {
          if (!d->done()) return false;
        }
        return true;
      },
      max_cycles, sim::Kernel::PredKind::pure);
  std::uint64_t payload = 0;
  for (const auto& d : drivers) payload += d->payload_bytes();
  return payload;
}

}  // namespace

SensitivityResult measure_read_utilization(const SensitivityConfig& cfg) {
  const unsigned elem_bytes = cfg.elem_bits / 8;
  const std::uint64_t epb = kBusBytes / elem_bytes;
  const std::uint64_t elems_per_burst = epb * cfg.burst_beats;
  const std::uint64_t total_elems = elems_per_burst * cfg.num_bursts;

  // Size the data region to cover the whole stream.
  const std::uint64_t span =
      cfg.indirect
          ? (1ull << 22)
          : elems_per_burst * cfg.num_bursts *
                    static_cast<std::uint64_t>(
                        cfg.stride_elems < 0 ? -cfg.stride_elems
                                             : cfg.stride_elems + 1) *
                    elem_bytes +
                (1u << 16);

  // Bare measurement fabric: one raw requestor port straight into the
  // adapter (no xbar/link hops), banks == 0 selecting the ideal backend.
  SystemBuilder builder;
  builder.bus_bits(kBusBytes * 8)
      .mem_region(kBase, span + (1ull << 22))
      .monitor(false)
      .naive_kernel(cfg.naive_kernel);
  mem::MemoryBackendConfig mc;
  if (cfg.banks == 0) {
    mc.name = "ideal";
  } else {
    mc.name = "banked";
    mc.num_banks = cfg.banks;
    mc.resp_depth = 256;
  }
  builder.memory(mc);
  // The coalescing unit, when enabled, keeps the adapter's default
  // grouping window.
  pack::AdapterConfig ac;
  ac.queue_depth = cfg.queue_depth;
  ac.resp_fifo_depth = 512;
  ac.idx_window_lines = cfg.idx_window_lines;
  if (cfg.coalesce_entries > 0) {
    ac.coalesce_enable = true;
    ac.coalesce_entries = cfg.coalesce_entries;
  }
  builder.adapter(ac);
  const MasterId requestor = builder.attach_port("ideal-requestor");

  std::unique_ptr<System> system = builder.build();
  mem::BackingStore& store = system->store();

  // Build the burst stream.
  std::vector<axi::AxiAr> ars;
  if (cfg.indirect) {
    // Random indices over the table; index array placed past the table.
    const std::uint64_t table_elems = (1ull << 20) / elem_bytes;
    const std::uint64_t idx_base = kBase + (1ull << 21);
    util::Rng rng(kIndexSeed);
    const unsigned ib = cfg.index_bits / 8;
    std::vector<std::uint8_t> raw(total_elems * ib);
    for (std::uint64_t i = 0; i < total_elems; ++i) {
      const std::uint64_t max_idx =
          std::min<std::uint64_t>(table_elems, 1ull << cfg.index_bits);
      const std::uint64_t idx = rng.below(max_idx);
      for (unsigned b = 0; b < ib; ++b) {
        raw[i * ib + b] = static_cast<std::uint8_t>(idx >> (8 * b));
      }
    }
    store.write(idx_base, raw.data(), raw.size());
    ars = axi::split_pack_indirect(kBase, idx_base, cfg.index_bits,
                                   elem_bytes, total_elems, kBusBytes);
  } else {
    const std::int64_t stride_bytes =
        cfg.stride_elems * static_cast<std::int64_t>(elem_bytes);
    const std::uint64_t start =
        cfg.stride_elems >= 0
            ? kBase
            : kBase + static_cast<std::uint64_t>(-stride_bytes) * total_elems;
    ars = axi::split_pack_strided(start, stride_bytes, elem_bytes, total_elems,
                                  kBusBytes);
  }

  SensitivityResult result;
  result.payload_bytes =
      drain_streams(*system, {requestor}, {std::move(ars)}, 50'000'000);
  result.cycles = system->kernel().now();
  result.r_util = static_cast<double>(result.payload_bytes) /
                  (static_cast<double>(result.cycles) * kBusBytes);
  result.bank_conflict_losses =
      system->memory_backend()->stats().conflict_losses;
  return result;
}

ChannelScalingResult measure_channel_scaling(
    const ChannelScalingConfig& cfg) {
  assert(cfg.masters > 0 && cfg.bytes_per_master > 0);

  // Each master streams its own contiguous region; regions are granule
  // multiples so every master's bursts round-robin all channels the same
  // way regardless of its region index.
  const std::uint64_t span =
      (cfg.bytes_per_master + kGranuleBytes - 1) / kGranuleBytes *
      kGranuleBytes;
  std::uint64_t mem_size = span * cfg.masters + (1ull << 20);
  const std::uint64_t block = kGranuleBytes * cfg.channels;
  mem_size = (mem_size + block - 1) / block * block;

  SystemBuilder builder;
  builder.bus_bits(kBusBytes * 8)
      .mem_region(kBase, mem_size)
      .channels(cfg.channels, kGranuleBytes)
      .naive_kernel(cfg.naive_kernel);
  builder.memory("dram");
  mem::DramTimingConfig t;
  t.mapping = cfg.mapping;
  builder.dram_timing(t);
  std::vector<MasterId> ids;
  ids.reserve(cfg.masters);
  for (unsigned m = 0; m < cfg.masters; ++m) {
    ids.push_back(builder.attach_port("req" + std::to_string(m)));
  }

  std::vector<std::vector<axi::AxiAr>> streams;
  streams.reserve(cfg.masters);
  for (unsigned m = 0; m < cfg.masters; ++m) {
    streams.push_back(axi::split_contiguous(kBase + m * span,
                                            cfg.bytes_per_master, kBusBytes,
                                            axi::Traffic::data));
  }

  std::unique_ptr<System> system = builder.build();
  ChannelScalingResult out;
  out.payload_bytes =
      drain_streams(*system, ids, std::move(streams), 200'000'000);
  out.cycles = system->kernel().now();
  const double cap =
      static_cast<double>(out.cycles) * static_cast<double>(kBusBytes);
  for (unsigned c = 0; c < system->num_channels(); ++c) {
    const axi::BusStats* bs = system->bus_stats(c);
    const double util =
        bs == nullptr || cap == 0.0
            ? 0.0
            : static_cast<double>(bs->r_payload_bytes) / cap;
    out.per_channel_r_util.push_back(util);
    out.agg_r_util += util;
    const mem::MemoryBackendStats ms = system->memory_backend(c)->stats();
    out.per_channel_row_hits.push_back(ms.row_hits);
    out.per_channel_row_misses.push_back(ms.row_misses);
  }
  return out;
}

}  // namespace axipack::sys
