// Packet model shared by the workload generator, the NF interpreter, and the
// NF element suite.
//
// This plays the role of Click's Packet/WritablePacket: a parsed view of the
// Ethernet/IPv4/TCP-or-UDP headers plus a bounded payload prefix (enough for
// DPI / CRC-style elements that touch payload bytes).
#ifndef SRC_NF_PACKET_H_
#define SRC_NF_PACKET_H_

#include <array>
#include <cstdint>
#include <string>

namespace clara {

inline constexpr int kMaxPayloadPrefix = 64;

// TCP flag bits (subset).
inline constexpr uint8_t kTcpFin = 0x01;
inline constexpr uint8_t kTcpSyn = 0x02;
inline constexpr uint8_t kTcpRst = 0x04;
inline constexpr uint8_t kTcpPsh = 0x08;
inline constexpr uint8_t kTcpAck = 0x10;

inline constexpr uint8_t kProtoTcp = 6;
inline constexpr uint8_t kProtoUdp = 17;

// A parsed packet. Field layout mirrors the header fields NF programs read
// and write; the interpreter exposes these under names like "ip.src" or
// "tcp.sport" (see src/ir/packet_fields.h).
struct Packet {
  // Ethernet.
  uint16_t eth_type = 0x0800;

  // IPv4.
  uint8_t ip_ihl = 5;        // header length in 32-bit words
  uint8_t ip_tos = 0;
  uint16_t ip_len = 0;       // total length in bytes
  uint8_t ip_ttl = 64;
  uint8_t ip_proto = kProtoTcp;
  uint16_t ip_checksum = 0;
  uint32_t src_ip = 0;
  uint32_t dst_ip = 0;

  // TCP/UDP (sport/dport shared; seq/ack/flags TCP-only).
  uint16_t sport = 0;
  uint16_t dport = 0;
  uint32_t tcp_seq = 0;
  uint32_t tcp_ack = 0;
  uint8_t tcp_off = 5;       // data offset in 32-bit words
  uint8_t tcp_flags = kTcpAck;
  uint16_t l4_checksum = 0;

  // Payload prefix; payload_len is the true payload size, of which up to
  // kMaxPayloadPrefix bytes are materialized in `payload`.
  uint16_t payload_len = 0;
  std::array<uint8_t, kMaxPayloadPrefix> payload = {};

  // Metadata (not on the wire).
  uint64_t ts_ns = 0;        // arrival timestamp
  uint16_t in_port = 0;

  // Total wire size in bytes (set by the workload generator).
  uint16_t wire_len = 64;

  // Verdict after NF processing.
  enum class Verdict : uint8_t { kPending, kSent, kDropped };
  Verdict verdict = Verdict::kPending;
  uint16_t out_port = 0;

  // Number of payload-prefix bytes actually materialized.
  int PayloadPrefixLen() const {
    return payload_len < kMaxPayloadPrefix ? payload_len : kMaxPayloadPrefix;
  }
};

// Dotted-quad rendering, for debugging and example output.
std::string IpToString(uint32_t ip);

// Computes the IPv4 header checksum over the logical header implied by the
// packet fields. Deterministic in the header fields; used both as the ground
// truth semantic for checksum_update() and by tests.
uint16_t Ipv4HeaderChecksum(const Packet& pkt);

}  // namespace clara

#endif  // SRC_NF_PACKET_H_
