// Seeded request schedules for the three serving workloads.
//
// A schedule is a pure function of (workload, seed): the same pair always
// yields the same distinct request keys in the same send order. Requests are
// issued in whole blocks. Every block holds each (element, mode, flow class)
// combination of its workload a fixed number of times, so every block costs
// the daemon the same work whatever its number and seed.
#ifndef SERVEBENCH_HARNESS_SCHEDULE_H_
#define SERVEBENCH_HARNESS_SCHEDULE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/workload/workload.h"

namespace servebench {

enum class Mix { kMissHeader, kMissPayload, kHitReplay };

// Parses "miss_header" / "miss_payload" / "hit_replay"; false when unknown.
bool ParseMix(const std::string& name, Mix* out);
const char* MixName(Mix mix);

// Open-loop request rate of hit_replay (requests per second, all
// connections together): under a quarter of the seed's closed-loop
// capacity for this mix on a 4-vCPU host, which read 13-18k req/s when the
// host was quiet and 4.5-7.2k while other tenants loaded it.
inline constexpr double kHitRate = 1000;
// Connections the generator polls.
inline constexpr int kConnections = 4;

// One distinct request: a registry element sent by name or as inline
// mini-Click source, under one workload. Two keys never share a
// (program text, workload) pair, so the daemon caches them separately.
struct Key {
  std::string element;
  bool inline_src = false;
  clara::WorkloadSpec workload;
};

// Registry element names, in registry order.
const std::vector<std::string>& AllElements();

// True for the elements whose inline-source requests the seed answers
// wrongly: ToSource drops map key/value layouts (refused with kCheckFailed)
// or table contents (wrong cores and latency). The timed workloads send
// these elements by name only; the inline probe counts their failures.
bool KnownInlineDefect(const std::string& element);

class Schedule {
 public:
  Schedule(Mix mix, uint64_t seed);

  bool open_loop() const { return mix_ == Mix::kHitReplay; }

  // Distinct keys seen so far. For hit_replay this is the fixed working set
  // from construction on; miss mixes add one block of fresh keys per block.
  const std::vector<Key>& keys() const { return keys_; }

  // Appends block b's requests (indices into keys()) to *order. Miss mixes
  // mint the block's keys here, so blocks are appended in order 0, 1, 2, ...
  void AppendBlock(uint64_t b, std::vector<uint32_t>* order);

  // Cache cross-talk probe, four requests per registry element in send
  // order: inline then by name on a fresh workload A, by name then inline
  // on a fresh workload B. The probe keys are the same for every workload
  // and seed, and no timed-phase key uses them.
  std::vector<Key> ProbeRequests() const;

  // Inline probe: every registry element as inline source, small then
  // large flows, each on a fresh key. Like the cross-talk probe, the keys
  // are the same for every workload and seed.
  std::vector<Key> InlineProbeRequests() const;

 private:
  Key MakeKey(const std::string& element, bool inline_src, bool small_flows,
              uint16_t pkt_size, uint64_t salt) const;

  Mix mix_;
  uint64_t seed_;
  std::vector<Key> keys_;
};

}  // namespace servebench

#endif  // SERVEBENCH_HARNESS_SCHEDULE_H_
