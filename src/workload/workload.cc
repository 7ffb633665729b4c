#include "src/workload/workload.h"

#include <algorithm>
#include <cmath>
#include <optional>

namespace clara {

WorkloadSpec WorkloadSpec::LargeFlows(uint16_t pkt_size) {
  WorkloadSpec s;
  s.name = "large-flows";
  s.num_flows = 64;
  s.zipf_s = 1.1;
  s.pkt_size = pkt_size;
  s.syn_ratio = 0.002;
  return s;
}

WorkloadSpec WorkloadSpec::SmallFlows(uint16_t pkt_size) {
  WorkloadSpec s;
  s.name = "small-flows";
  s.num_flows = 65536;
  s.zipf_s = 0.4;
  s.pkt_size = pkt_size;
  s.syn_ratio = 0.15;
  return s;
}

Packet MakeFlowPacket(const WorkloadSpec& spec, uint32_t flow_id, Rng& rng) {
  Packet p;
  // Derive a stable 5-tuple from the flow id. Keep addresses non-zero (the
  // baremetal maps use key==0 as the empty-slot sentinel).
  uint64_t h = flow_id * 0x9e3779b97f4a7c15ULL + 0x1234567ULL;
  h ^= h >> 29;
  p.src_ip = 0x0a000000u | (static_cast<uint32_t>(h) & 0x00ffffffu) | 0x0101u;
  p.dst_ip = 0xc0a80000u | ((static_cast<uint32_t>(h >> 24) & 0xffffu) | 1u);
  p.sport = static_cast<uint16_t>(1024 + (h >> 40) % 60000);
  p.dport = (flow_id % 7 == 0) ? 53 : ((flow_id % 3 == 0) ? 80 : 443);
  p.ip_proto = rng.NextBool(spec.udp_fraction) ? kProtoUdp : kProtoTcp;
  p.wire_len = std::max<uint16_t>(spec.pkt_size, 64);
  p.ip_len = static_cast<uint16_t>(p.wire_len - 14);
  p.payload_len = p.wire_len > 54 ? static_cast<uint16_t>(p.wire_len - 54) : 0;
  int prefix = p.PayloadPrefixLen();
  for (int i = 0; i < prefix; ++i) {
    p.payload[static_cast<size_t>(i)] = static_cast<uint8_t>(rng.NextU64());
  }
  p.tcp_flags = kTcpAck;
  p.tcp_seq = static_cast<uint32_t>(rng.NextU64());
  return p;
}

Trace GenerateTrace(const WorkloadSpec& spec, size_t n_packets) {
  Trace t;
  t.spec = spec;
  t.packets.reserve(n_packets);
  Rng rng(spec.seed);
  std::optional<ZipfSampler> zipf;
  if (!(spec.zipf_s <= 0.0)) {
    zipf.emplace(spec.num_flows, std::max(spec.zipf_s, 1e-6));
  }
  uint64_t ts = 0;
  for (size_t i = 0; i < n_packets; ++i) {
    uint32_t flow = zipf ? static_cast<uint32_t>(zipf->Sample(rng))
                         : static_cast<uint32_t>(rng.NextBounded(spec.num_flows));
    Packet p = MakeFlowPacket(spec, flow, rng);
    if (p.ip_proto == kProtoTcp && rng.NextBool(spec.syn_ratio)) {
      p.tcp_flags = kTcpSyn;
    }
    ts += 300 + rng.NextBounded(200);  // ~3 Mpps offered inter-arrival, ns
    p.ts_ns = ts;
    t.packets.push_back(p);
  }
  return t;
}

double EstimateCacheHitRate(const WorkloadSpec& spec, uint64_t cache_entries) {
  if (cache_entries == 0) {
    return 0.0;
  }
  if (cache_entries >= spec.num_flows) {
    return 1.0;
  }
  if (spec.zipf_s <= 0.0) {
    return static_cast<double>(cache_entries) / spec.num_flows;
  }
  // Mass of the `cache_entries` most popular ranks under Zipf(s): approximate
  // generalized harmonic sums with integrals for large n.
  auto harmonic = [&](double n) {
    double s = spec.zipf_s;
    if (std::abs(s - 1.0) < 1e-9) {
      return std::log(n) + 0.5772156649;
    }
    return (std::pow(n, 1.0 - s) - 1.0) / (1.0 - s) + 1.0;
  };
  double top = harmonic(static_cast<double>(cache_entries));
  double all = harmonic(static_cast<double>(spec.num_flows));
  return std::clamp(top / all, 0.0, 1.0);
}

}  // namespace clara
