// Single-threaded request generator: one process, one thread, polling at
// most kConnections Unix-socket connections to a clara_serve daemon.
//
// Closed loop: each connection has one request outstanding and sends the
// next as soon as the answer arrives; latency is timed from send. Open loop:
// request i is due at start + i / rate on connection i mod kConnections and
// is sent when due whether or not earlier requests were answered, as long as
// fewer than kMaxOutstanding are; latency is timed from when it was due, so a
// stalled daemon inflates the latency of every request that waited behind the
// stall, and `lag` records how late the generator itself sent.
//
// Every answer is decoded and matched against the id of the oldest request
// outstanding on its connection. The generator keeps each distinct response
// body once per key, so that every answer can be compared byte for byte
// against the reference after the run without storing one body per answer.
#ifndef SERVEBENCH_HARNESS_GEN_H_
#define SERVEBENCH_HARNESS_GEN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "servebench/harness/schedule.h"
#include "src/serve/proto.h"

namespace servebench {

// Open loop: the most requests outstanding at once, half the daemon's
// default queue capacity (64). Requests that fall due during a stall wait in
// the generator, timed from when they were due, instead of arriving as one
// burst that overflows the daemon's queue and comes back refused.
inline constexpr size_t kMaxOutstanding = 32;

// Distinct bodies answered for one key.
struct KeyBodies {
  std::vector<std::string> bodies;
  // Index of `body` in bodies, adding it when new.
  uint32_t Add(std::string_view body);
};

struct Answer {
  uint32_t key = 0;
  uint32_t body = 0;  // index into KeyBodies::bodies of the key
  double latency_us = 0;  // from due (open loop) or send (closed loop)
  double rtt_us = 0;      // from send
  double lag_us = 0;      // send - due (open loop), 0 in a closed loop
  clara::serve::LatencyBreakdown breakdown;
};

// Request i's key is (*order)[i]; more blocks may be appended through
// `extend` while the phase runs. Keys live in *keys (which may grow).
struct Phase {
  const std::vector<Key>* keys = nullptr;
  std::vector<uint32_t>* order = nullptr;
  // Closed loop only: called when the order runs out; appends more requests
  // and returns true to continue, false to finish.
  std::function<bool(double elapsed_s)> extend;
  bool open_loop = false;
  double rate = 0;  // open loop: requests per second
  int connections = kConnections;
};

struct PhaseResult {
  std::vector<Answer> answers;  // in arrival order
  double seconds = 0;           // first send (or due time) to last answer
};

// Extracts the cached-body part of a response payload (between the echoed
// id and the optional trailing sections).
bool ResponseBody(std::string_view payload, const clara::serve::InsightResponse& parsed,
                  std::string_view* body);

class Generator {
 public:
  Generator();
  ~Generator();
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  bool Connect(const std::string& socket_path, int connections, std::string* error);

  // Runs one phase. False on a harness fault (daemon gone, undecodable
  // frame, id mismatch, answers missing after the stall limit), with *error.
  bool Run(const Phase& phase, std::vector<KeyBodies>* bodies, PhaseResult* out,
           std::string* error);

  // Sends one control request on the first connection (between phases) and
  // returns the answer's JSON document.
  bool Control(clara::serve::ControlOp op, std::string* json, std::string* error);

 private:
  struct Conn;
  std::vector<std::unique_ptr<Conn>> conns_;
  uint64_t next_id_ = 1;
};

}  // namespace servebench

#endif  // SERVEBENCH_HARNESS_GEN_H_
