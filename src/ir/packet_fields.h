// The packet fields NF programs read and write (e.g. "ip.src"): the single
// declaration of the packet layout.
//
// Each entry names a field, its IR type, its offset in the logical wire
// image, the Packet member that backs it, and whether programs may assign
// it. Everything else derives from this table: lowering, the IR parser,
// builder, verifier and printer, the instruction vocabulary, the NIC backend,
// the type checker, the AST interpreter, the NIC executor's packet image
// (NfEnv) and the differential harness.
//
// Entry order is the IR field index (Instruction::sym of a packet access),
// which reaches the instruction vocabulary and the LSTM: append only.
#ifndef SRC_IR_PACKET_FIELDS_H_
#define SRC_IR_PACKET_FIELDS_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <string_view>
#include <type_traits>

#include "src/ir/ir.h"
#include "src/nf/packet.h"

namespace clara {

enum class PacketFieldKind : uint8_t {
  kHeader,   // on the wire at wire_offset
  kMeta,     // metadata pseudo-field, not on the wire (wire_offset 0)
  kPayload,  // the payload prefix, addressed by a dynamic byte index only
};

struct PacketFieldDef {
  std::string_view name;
  Type type;
  uint16_t wire_offset;    // offset in the logical wire image
  uint16_t packet_offset;  // offsetof the backing Packet member
  uint16_t packet_bytes;   // sizeof the backing Packet member
  PacketFieldKind kind;
  bool writable;           // programs may assign it (`pkt.<field> = ...`)
};

// Header bytes of the wire image; the payload prefix follows them.
inline constexpr int kWireHeaderBytes = 54;

static_assert(std::is_standard_layout_v<Packet>, "offsetof needs a standard-layout Packet");

#define CLARA_PACKET_MEMBER(m) \
  static_cast<uint16_t>(offsetof(Packet, m)), static_cast<uint16_t>(sizeof(Packet::m))

inline constexpr PacketFieldDef kPacketFields[] = {
    {"eth.type", Type::kI16, 12, CLARA_PACKET_MEMBER(eth_type), PacketFieldKind::kHeader, true},
    {"ip.ihl", Type::kI8, 14, CLARA_PACKET_MEMBER(ip_ihl), PacketFieldKind::kHeader, true},
    {"ip.tos", Type::kI8, 15, CLARA_PACKET_MEMBER(ip_tos), PacketFieldKind::kHeader, true},
    {"ip.len", Type::kI16, 16, CLARA_PACKET_MEMBER(ip_len), PacketFieldKind::kHeader, true},
    {"ip.ttl", Type::kI8, 22, CLARA_PACKET_MEMBER(ip_ttl), PacketFieldKind::kHeader, true},
    {"ip.proto", Type::kI8, 23, CLARA_PACKET_MEMBER(ip_proto), PacketFieldKind::kHeader, true},
    {"ip.csum", Type::kI16, 24, CLARA_PACKET_MEMBER(ip_checksum), PacketFieldKind::kHeader,
     true},
    {"ip.src", Type::kI32, 26, CLARA_PACKET_MEMBER(src_ip), PacketFieldKind::kHeader, true},
    {"ip.dst", Type::kI32, 30, CLARA_PACKET_MEMBER(dst_ip), PacketFieldKind::kHeader, true},
    {"tcp.sport", Type::kI16, 34, CLARA_PACKET_MEMBER(sport), PacketFieldKind::kHeader, true},
    {"tcp.dport", Type::kI16, 36, CLARA_PACKET_MEMBER(dport), PacketFieldKind::kHeader, true},
    {"tcp.seq", Type::kI32, 38, CLARA_PACKET_MEMBER(tcp_seq), PacketFieldKind::kHeader, true},
    {"tcp.ack", Type::kI32, 42, CLARA_PACKET_MEMBER(tcp_ack), PacketFieldKind::kHeader, true},
    {"tcp.off", Type::kI8, 46, CLARA_PACKET_MEMBER(tcp_off), PacketFieldKind::kHeader, true},
    {"tcp.flags", Type::kI8, 47, CLARA_PACKET_MEMBER(tcp_flags), PacketFieldKind::kHeader, true},
    {"tcp.csum", Type::kI16, 48, CLARA_PACKET_MEMBER(l4_checksum), PacketFieldKind::kHeader,
     true},
    {"pkt.len", Type::kI16, 0, CLARA_PACKET_MEMBER(wire_len), PacketFieldKind::kMeta, false},
    {"pkt.payload_len", Type::kI16, 0, CLARA_PACKET_MEMBER(payload_len), PacketFieldKind::kMeta,
     false},
    {"pkt.in_port", Type::kI16, 0, CLARA_PACKET_MEMBER(in_port), PacketFieldKind::kMeta, true},
    {"pkt.ts", Type::kI64, 0, CLARA_PACKET_MEMBER(ts_ns), PacketFieldKind::kMeta, false},
    // A bare `pkt.payload` reads as 0; bytes are reached as pkt.payload[i].
    {"pkt.payload", Type::kI8, kWireHeaderBytes, CLARA_PACKET_MEMBER(payload),
     PacketFieldKind::kPayload, false},
};

#undef CLARA_PACKET_MEMBER

inline constexpr size_t kNumPacketFields = std::size(kPacketFields);

// Index of the named field in kPacketFields (= its IR field index), or -1.
constexpr int FindPacketFieldIndex(std::string_view name) {
  for (size_t i = 0; i < kNumPacketFields; ++i) {
    if (kPacketFields[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

// IR field index of the payload bytes (`pkt.payload[i]`).
inline constexpr int kPayloadField = FindPacketFieldIndex("pkt.payload");

constexpr bool PacketFieldInvariantsHold() {
  int payload_fields = 0;
  for (size_t i = 0; i < kNumPacketFields; ++i) {
    const PacketFieldDef& f = kPacketFields[i];
    if (f.name.empty() || FindPacketFieldIndex(f.name) != static_cast<int>(i)) {
      return false;  // names are non-empty and unique
    }
    if (f.packet_offset + f.packet_bytes > sizeof(Packet)) {
      return false;
    }
    int bytes = BitWidth(f.type) / 8;
    switch (f.kind) {
      case PacketFieldKind::kHeader:
        if (f.packet_bytes != bytes || f.wire_offset + bytes > kWireHeaderBytes) {
          return false;
        }
        break;
      case PacketFieldKind::kMeta:
        if (f.packet_bytes != bytes || f.wire_offset != 0) {
          return false;
        }
        break;
      case PacketFieldKind::kPayload:
        ++payload_fields;
        if (f.type != Type::kI8 || f.wire_offset != kWireHeaderBytes ||
            f.packet_bytes != kMaxPayloadPrefix || f.writable) {
          return false;
        }
        break;
    }
    for (size_t j = 0; j < kNumPacketFields; ++j) {
      const PacketFieldDef& g = kPacketFields[j];
      if (i == j) {
        continue;
      }
      // Distinct Packet members, and no two header fields share wire bytes.
      if (f.packet_offset <= g.packet_offset &&
          f.packet_offset + f.packet_bytes > g.packet_offset) {
        return false;
      }
      if (f.kind == PacketFieldKind::kHeader && g.kind == PacketFieldKind::kHeader &&
          f.wire_offset <= g.wire_offset && f.wire_offset + f.packet_bytes > g.wire_offset) {
        return false;
      }
    }
  }
  return payload_fields == 1;
}

static_assert(PacketFieldInvariantsHold());

// The Packet member backing a header or metadata field, zero-extended.
inline uint64_t LoadPacketMember(const Packet& p, const PacketFieldDef& f) {
  const auto* src = reinterpret_cast<const unsigned char*>(&p) + f.packet_offset;
  switch (f.packet_bytes) {
    case 1: return *src;
    case 2: { uint16_t v; std::memcpy(&v, src, 2); return v; }
    case 4: { uint32_t v; std::memcpy(&v, src, 4); return v; }
    case 8: { uint64_t v; std::memcpy(&v, src, 8); return v; }
  }
  return 0;
}

// Stores `v`, truncated to the member's width, into a header or metadata
// field's Packet member.
inline void StorePacketMember(Packet& p, const PacketFieldDef& f, uint64_t v) {
  auto* dst = reinterpret_cast<unsigned char*>(&p) + f.packet_offset;
  switch (f.packet_bytes) {
    case 1: *dst = static_cast<uint8_t>(v); return;
    case 2: { auto t = static_cast<uint16_t>(v); std::memcpy(dst, &t, 2); return; }
    case 4: { auto t = static_cast<uint32_t>(v); std::memcpy(dst, &t, 4); return; }
    case 8: std::memcpy(dst, &v, 8); return;
  }
}

}  // namespace clara

#endif  // SRC_IR_PACKET_FIELDS_H_
