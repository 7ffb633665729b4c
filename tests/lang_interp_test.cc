// Interpreter semantics and profile-attribution tests.
#include "src/lang/interp.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>

#include "src/elements/elements.h"
#include "src/nf/checksum.h"
#include "src/workload/workload.h"

namespace clara {
namespace {

Packet TcpPacket(uint32_t src, uint32_t dst, uint16_t sport, uint16_t dport,
                 uint8_t flags = kTcpAck) {
  Packet p;
  p.src_ip = src;
  p.dst_ip = dst;
  p.sport = sport;
  p.dport = dport;
  p.tcp_flags = flags;
  p.ip_len = 110;
  p.wire_len = 124;
  p.payload_len = 70;
  return p;
}

TEST(Interp, ArithmeticAndMasking) {
  Program p;
  p.name = "arith";
  p.state.push_back([] {
    StateDecl d;
    d.name = "out";
    d.kind = StateKind::kScalar;
    d.elem_type = Type::kI32;
    return d;
  }());
  // u8 arithmetic wraps at 256.
  p.body.push_back(Decl("a", Type::kI8, Lit(200)));
  p.body.push_back(Assign("a", Bin(Opcode::kAdd, Local("a"), Lit(100))));
  p.body.push_back(AssignState("out", Local("a")));
  NfInstance nf(std::move(p));
  ASSERT_TRUE(nf.ok()) << nf.error();
  Packet pkt = TcpPacket(1, 2, 3, 4);
  nf.Process(pkt);
  EXPECT_EQ(nf.ReadScalar("out"), (200u + 100u) & 0xff);
}

TEST(Interp, ShiftAndCompareSemantics) {
  Program p;
  p.state.push_back([] {
    StateDecl d;
    d.name = "r";
    d.kind = StateKind::kScalar;
    d.elem_type = Type::kI32;
    return d;
  }());
  p.body.push_back(Decl("x", Type::kI32, Lit(0xf0)));
  std::vector<StmtPtr> then_body;
  then_body.push_back(AssignState("r", Bin(Opcode::kLShr, Local("x"), Lit(4))));
  p.body.push_back(
      If(Cmp(Opcode::kIcmpUgt, Local("x"), Lit(0x0f)), std::move(then_body)));
  NfInstance nf(std::move(p));
  ASSERT_TRUE(nf.ok());
  Packet pkt = TcpPacket(1, 2, 3, 4);
  nf.Process(pkt);
  EXPECT_EQ(nf.ReadScalar("r"), 0x0fu);
}

TEST(Interp, ForLoopIterationCountsAttributed) {
  Program p;
  p.state.push_back([] {
    StateDecl d;
    d.name = "sum";
    d.kind = StateKind::kScalar;
    d.elem_type = Type::kI32;
    return d;
  }());
  std::vector<StmtPtr> body;
  body.push_back(AssignState("sum", Bin(Opcode::kAdd, StateRef("sum"), Local("i"))));
  p.body.push_back(For("i", Lit(0), Lit(5), std::move(body)));
  NfInstance nf(std::move(p));
  ASSERT_TRUE(nf.ok());
  const Stmt& loop = *nf.program().body[0];
  Packet pkt = TcpPacket(1, 2, 3, 4);
  nf.Process(pkt);
  EXPECT_EQ(nf.ReadScalar("sum"), 0u + 1 + 2 + 3 + 4);
  // Cond evaluated 6x (5 iterations + exit), latch 5x.
  EXPECT_EQ(nf.profile().block_exec[loop.block_cond], 6u);
  EXPECT_EQ(nf.profile().block_exec[loop.block_latch], 5u);
}

TEST(Interp, MapFindInsertAcrossPackets) {
  Program p = MakeMazuNat();
  NfInstance nf(std::move(p));
  ASSERT_TRUE(nf.ok()) << nf.error();

  // Outbound SYN from inside allocates a translation.
  Packet syn = TcpPacket(0x0a000005, 0x08080808, 4321, 80, kTcpSyn);
  syn.in_port = 0;
  nf.Process(syn);
  EXPECT_EQ(syn.verdict, Packet::Verdict::kSent);
  EXPECT_EQ(syn.src_ip, 0xc0a80101u);  // rewritten to the NAT external IP
  uint16_t ext_port = syn.sport;
  EXPECT_GE(ext_port, 10000);
  EXPECT_EQ(nf.ReadScalar("active_flows"), 1u);

  // Second outbound packet of the same flow reuses the mapping.
  Packet data = TcpPacket(0x0a000005, 0x08080808, 4321, 80);
  data.in_port = 0;
  nf.Process(data);
  EXPECT_EQ(data.sport, ext_port);
  EXPECT_EQ(nf.ReadScalar("active_flows"), 1u);

  // Inbound packet to the external mapping is translated back.
  Packet reply = TcpPacket(0x08080808, 0xc0a80101, 80, ext_port);
  reply.in_port = 1;
  nf.Process(reply);
  EXPECT_EQ(reply.verdict, Packet::Verdict::kSent);
  EXPECT_EQ(reply.dst_ip, 0x0a000005u);
  EXPECT_EQ(reply.dport, 4321);

  // Inbound to an unknown mapping is dropped.
  Packet stray = TcpPacket(0x08080808, 0xc0a80101, 80, 9);
  stray.in_port = 1;
  nf.Process(stray);
  EXPECT_EQ(stray.verdict, Packet::Verdict::kDropped);
}

TEST(Interp, ChecksumApiMatchesReference) {
  Program p;
  p.body.push_back(Api("checksum_update"));
  p.body.push_back(Send(nullptr));
  NfInstance nf(std::move(p));
  ASSERT_TRUE(nf.ok());
  Packet pkt = TcpPacket(0x01020304, 0x05060708, 10, 20);
  nf.Process(pkt);
  EXPECT_EQ(pkt.ip_checksum, Ipv4HeaderChecksum(pkt));
}

TEST(Interp, DpiMatchesGetSignature) {
  Program p = MakeDpi();
  NfInstance nf(std::move(p));
  ASSERT_TRUE(nf.ok());
  Packet hit = TcpPacket(1, 2, 3, 80);
  hit.payload_len = 32;
  hit.payload[4] = 'G';
  hit.payload[5] = 'E';
  hit.payload[6] = 'T';
  hit.payload[7] = ' ';
  nf.Process(hit);
  EXPECT_EQ(nf.ReadScalar("matched"), 1u);
  EXPECT_EQ(hit.ip_tos, 1);

  Packet miss = TcpPacket(1, 2, 3, 80);
  miss.payload_len = 32;
  nf.Process(miss);
  EXPECT_EQ(nf.ReadScalar("matched"), 1u);  // unchanged
  EXPECT_EQ(nf.ReadScalar("scanned"), 2u);
}

TEST(Interp, IpLookupAgreesWithLpmTable) {
  // The element embeds a trie built from seed 99; rebuild the same table
  // here and compare verdicts on random addresses.
  Program p = MakeIpLookup(/*num_rules=*/128, false, false, /*seed=*/99);
  NfInstance nf(std::move(p));
  ASSERT_TRUE(nf.ok());

  LpmTable table;
  Rng rng(99);
  table.Insert(0, 0, 15);  // the element seeds a default route first
  for (int r = 0; r < 128; ++r) {
    int plen = static_cast<int>(rng.NextInt(8, 24));
    uint32_t prefix = static_cast<uint32_t>(rng.NextU64()) & ~((1u << (32 - plen)) - 1);
    table.Insert(prefix, plen, static_cast<uint32_t>(rng.NextBounded(16)));
  }

  Rng qrng(5);
  int hits = 0;
  for (int q = 0; q < 300; ++q) {
    Packet pkt = TcpPacket(1, static_cast<uint32_t>(qrng.NextU64()), 1, 2);
    auto expect = table.Lookup(pkt.dst_ip);
    nf.Process(pkt);
    if (expect.has_value()) {
      ++hits;
      ASSERT_EQ(pkt.verdict, Packet::Verdict::kSent) << IpToString(pkt.dst_ip);
      ASSERT_EQ(pkt.out_port, *expect);
    } else {
      ASSERT_EQ(pkt.verdict, Packet::Verdict::kDropped) << IpToString(pkt.dst_ip);
    }
  }
  EXPECT_GT(hits, 0);
}

TEST(Interp, BlockEntryCountsMatchPackets) {
  Program p = MakeAggCounter();
  NfInstance nf(std::move(p));
  ASSERT_TRUE(nf.ok());
  const Stmt& first = *nf.program().body[0];
  for (int i = 0; i < 10; ++i) {
    Packet pkt = TcpPacket(i + 1, 2 * i + 1, 3, 4);
    nf.Process(pkt);
  }
  EXPECT_EQ(nf.profile().packets, 10u);
  ASSERT_TRUE(first.block_entry);
  EXPECT_EQ(nf.profile().block_exec[first.block], 10u);
}

TEST(Interp, StateAccessCountsRecorded) {
  Program p = MakeAggCounter();
  NfInstance nf(std::move(p));
  ASSERT_TRUE(nf.ok());
  int counts_idx = nf.module().FindState("counts");
  int total_idx = nf.module().FindState("total_pkts");
  ASSERT_GE(counts_idx, 0);
  for (int i = 0; i < 7; ++i) {
    Packet pkt = TcpPacket(i + 1, 9, 3, 4);
    nf.Process(pkt);
  }
  // counts[]: one read + one write per packet; total_pkts the same.
  EXPECT_EQ(nf.profile().state_reads[counts_idx], 7u);
  EXPECT_EQ(nf.profile().state_writes[counts_idx], 7u);
  EXPECT_EQ(nf.profile().StateAccesses(total_idx), 14u);
}

TEST(Interp, ApiCallsCounted) {
  Program p = MakeUdpIpEncap();
  NfInstance nf(std::move(p));
  ASSERT_TRUE(nf.ok());
  Packet pkt = TcpPacket(1, 2, 3, 4);
  nf.Process(pkt);
  EXPECT_EQ(nf.profile().api_calls.at("checksum_update"), 1u);
  EXPECT_EQ(nf.profile().api_calls.at("send"), 1u);
}

TEST(Interp, ResetStateClearsMaps) {
  Program p = MakeMazuNat();
  NfInstance nf(std::move(p));
  ASSERT_TRUE(nf.ok());
  Packet syn = TcpPacket(0x0a000005, 0x08080808, 4321, 80, kTcpSyn);
  syn.in_port = 0;
  nf.Process(syn);
  EXPECT_GT(nf.FindMap("int_map")->entries(), 0u);
  nf.ResetState();
  EXPECT_EQ(nf.FindMap("int_map")->entries(), 0u);
  EXPECT_EQ(nf.ReadScalar("active_flows"), 0u);
}

TEST(Interp, DefaultVerdictIsSent) {
  Program p;  // empty handler: packet passes through
  NfInstance nf(std::move(p));
  ASSERT_TRUE(nf.ok());
  Packet pkt = TcpPacket(1, 2, 3, 4);
  nf.Process(pkt);
  EXPECT_EQ(pkt.verdict, Packet::Verdict::kSent);
}

TEST(Interp, TimeFilterWindows) {
  Program p = MakeTimeFilter();
  NfInstance nf(std::move(p));
  ASSERT_TRUE(nf.ok());
  Packet a = TcpPacket(1, 2, 3, 4);
  a.ts_ns = 5'000'000'000ULL;
  nf.Process(a);
  EXPECT_EQ(nf.ReadScalar("window_count"), 1u);
  Packet b = TcpPacket(1, 2, 3, 4);
  b.ts_ns = 5'500'000'000ULL;  // same window
  nf.Process(b);
  EXPECT_EQ(nf.ReadScalar("window_count"), 2u);
  Packet c = TcpPacket(1, 2, 3, 4);
  c.ts_ns = 7'000'000'000ULL;  // new window
  nf.Process(c);
  EXPECT_EQ(nf.ReadScalar("window_count"), 1u);
}

// FNV-1a over everything a profile run produces: the NfProfile (block
// counts, state reads/writes, the block x variable matrix, API calls,
// sends/drops) and every field of every output packet.
class Fingerprint {
 public:
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  void Str(const std::string& s) {
    U64(s.size());
    for (char c : s) {
      U64(static_cast<uint8_t>(c));
    }
  }
  void Vec(const std::vector<uint64_t>& v) {
    U64(v.size());
    for (uint64_t x : v) {
      U64(x);
    }
  }
  void Profile(const NfProfile& p) {
    U64(p.packets);
    U64(p.sends);
    U64(p.drops);
    Vec(p.block_exec);
    Vec(p.state_reads);
    Vec(p.state_writes);
    U64(p.block_var_access.size());
    for (const auto& row : p.block_var_access) {
      Vec(row);
    }
    U64(p.api_calls.size());
    for (const auto& [name, count] : p.api_calls) {
      Str(name);
      U64(count);
    }
  }
  void Pkt(const Packet& p) {
    for (uint64_t v : {uint64_t{p.eth_type}, uint64_t{p.ip_ihl}, uint64_t{p.ip_tos},
                       uint64_t{p.ip_len}, uint64_t{p.ip_ttl}, uint64_t{p.ip_proto},
                       uint64_t{p.ip_checksum}, uint64_t{p.src_ip}, uint64_t{p.dst_ip},
                       uint64_t{p.sport}, uint64_t{p.dport}, uint64_t{p.tcp_seq},
                       uint64_t{p.tcp_ack}, uint64_t{p.tcp_off}, uint64_t{p.tcp_flags},
                       uint64_t{p.l4_checksum}, uint64_t{p.payload_len}, p.ts_ns,
                       uint64_t{p.in_port}, uint64_t{p.wire_len},
                       static_cast<uint64_t>(p.verdict), uint64_t{p.out_port}}) {
      U64(v);
    }
    for (uint8_t b : p.payload) {
      U64(b);
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct Golden {
  const char* element;
  bool small_flows;
  uint64_t fingerprint;
};

// Pinned from the string-resolving interpreter this one replaced: profiles
// and output packets must stay bit-identical, 4000 packets per run (the
// analyzer's profile length).
constexpr Golden kGolden[] = {
    {"anonipaddr", true, 0x3bca59e3c439c93bULL},
    {"anonipaddr", false, 0x99acc954367bad18ULL},
    {"tcpack", true, 0xcc3163ed1d5424cdULL},
    {"tcpack", false, 0x1ecde60081d4dc1cULL},
    {"udpipencap", true, 0x05d1098b42eebf62ULL},
    {"udpipencap", false, 0xc24af3a07a3c5886ULL},
    {"forcetcp", true, 0x5a43984360f72f89ULL},
    {"forcetcp", false, 0xc3cacd1ae483df85ULL},
    {"tcpresp", true, 0x244439d3983ce4efULL},
    {"tcpresp", false, 0xab86676d08e7598aULL},
    {"tcpgen", true, 0x131abcf68d9e2e61ULL},
    {"tcpgen", false, 0x07f04ac99872fcf2ULL},
    {"aggcounter", true, 0x62b1da86832ceefdULL},
    {"aggcounter", false, 0xd77d7011052d9281ULL},
    {"timefilter", true, 0x93b02e73abc2f14dULL},
    {"timefilter", false, 0x0165292fe1e17c41ULL},
    {"webtcp", true, 0x2d856ffacf22643cULL},
    {"webtcp", false, 0xc5e12c3f9b8165ffULL},
    {"cmsketch", true, 0xe337a4f914f8890cULL},
    {"cmsketch", false, 0x7af4e493807206a0ULL},
    {"wepdecap", true, 0xa7151bb8f9110ebdULL},
    {"wepdecap", false, 0x362799e8b248dfe7ULL},
    {"iplookup", true, 0xfe2e6f1fd5656d84ULL},
    {"iplookup", false, 0x3ba776ceb93c2840ULL},
    {"dpi", true, 0xd87751f488390f33ULL},
    {"dpi", false, 0x3f25c71b2d946fffULL},
    {"firewall", true, 0x733e30aa05874614ULL},
    {"firewall", false, 0x3298475a3fb15663ULL},
    {"heavyhitter", true, 0x1ac1ed37d4560eceULL},
    {"heavyhitter", false, 0xe0047de26023eca6ULL},
    {"iprewriter", true, 0x88045465b778782bULL},
    {"iprewriter", false, 0x15e75f729b7029f0ULL},
    {"ipclassifier", true, 0x46554416fa6d1652ULL},
    {"ipclassifier", false, 0x212f90f4d85afb30ULL},
    {"dnsproxy", true, 0x91b8b33c13a145d4ULL},
    {"dnsproxy", false, 0xa21f239285b70b88ULL},
    {"mazunat", true, 0x99c2d6341cf076faULL},
    {"mazunat", false, 0x868e8ff4c2956489ULL},
    {"udpcount", true, 0xc24a8a2ac028a151ULL},
    {"udpcount", false, 0xa5fd5ad25ec16f0dULL},
    {"webgen", true, 0xe334933dfc4ccc8cULL},
    {"webgen", false, 0x0f7157279e899ee3ULL},
    {"tokenbucket", true, 0x86402e8114c6e461ULL},
    {"tokenbucket", false, 0xbf23118802712c6dULL},
    {"synflood", true, 0xc88a8f6b465cf784ULL},
    {"synflood", false, 0x858bc9928ca48519ULL},
};

TEST(Interp, RegistryProfilesMatchGoldenFingerprints) {
  size_t checked = 0;
  for (const auto& info : ElementRegistry()) {
    for (bool small : {true, false}) {
      NfInstance nf(info.make());
      ASSERT_TRUE(nf.ok()) << info.name << ": " << nf.error();
      WorkloadSpec spec = small ? WorkloadSpec::SmallFlows() : WorkloadSpec::LargeFlows();
      Trace trace = GenerateTrace(spec, 4000);
      Fingerprint fp;
      for (auto& pkt : trace.packets) {
        nf.Process(pkt);
        fp.Pkt(pkt);
      }
      fp.Profile(nf.profile());
      const Golden* want = nullptr;
      for (const Golden& g : kGolden) {
        if (info.name == g.element && g.small_flows == small) {
          want = &g;
        }
      }
      char row[160];
      std::snprintf(row, sizeof(row), "{\"%s\", %s, 0x%016" PRIx64 "ULL},", info.name.c_str(),
                    small ? "true" : "false", fp.value());
      if (want == nullptr) {
        ADD_FAILURE() << "no golden row; measured " << row;
        continue;
      }
      EXPECT_EQ(fp.value(), want->fingerprint) << "measured " << row;
      ++checked;
    }
  }
  EXPECT_EQ(checked, std::size(kGolden));
}

}  // namespace
}  // namespace clara
