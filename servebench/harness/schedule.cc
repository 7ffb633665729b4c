#include "servebench/harness/schedule.h"

#include <algorithm>
#include <set>

#include "src/elements/elements.h"

namespace servebench {
namespace {

// Per-(mode, flow class) copies of each miss_payload element in one block.
// wepdecap interprets a payload loop per byte and costs 5-20x the others
// per request, so it is drawn a quarter as often; every element stays in
// every block.
struct Weighted {
  const char* element;
  int copies;
};
constexpr Weighted kPayloadMix[] = {
    {"cmsketch", 4}, {"wepdecap", 1}, {"iplookup", 4}, {"dpi", 4}, {"ipclassifier", 4},
};

// Packet sizes the keys are spread over. The payload mix stays at the small
// end: its elements loop over payload bytes, and these sizes keep one block
// short enough that several fit in a timed phase.
constexpr uint16_t kHeaderPktSizes[] = {64, 128, 256, 512, 1024, 1500};
constexpr uint16_t kPayloadPktSizes[] = {64, 80, 96, 112, 128};

// Packet size of the cache cross-talk probe's keys.
constexpr uint16_t kProbePktSize = 128;

// Salt domains keep probe, working-set and miss keys apart.
constexpr uint64_t kSaltMiss = 1;
constexpr uint64_t kSaltWorkingSet = 2;
constexpr uint64_t kSaltProbe = 3;
constexpr uint64_t kSaltInlineProbe = 4;

// SplitMix64 step: the schedules' only source of pseudo-randomness, kept
// apart from the library's generators so that schedules stay fixed when the
// library changes.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

uint64_t Hash(uint64_t a, uint64_t b) { return Mix64(a ^ Mix64(b)); }
uint64_t Hash(uint64_t a, uint64_t b, uint64_t c) { return Hash(Hash(a, b), c); }

// Fisher-Yates over v, driven by a counter-mode stream from `seed`.
template <typename T>
void Shuffle(std::vector<T>* v, uint64_t seed) {
  for (size_t i = v->size(); i > 1; --i) {
    size_t j = Hash(seed, i) % i;
    std::swap((*v)[i - 1], (*v)[j]);
  }
}

// The five loop-heavy elements of miss_payload and the 18 others.
const std::vector<std::string>& PayloadElements() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Weighted& w : kPayloadMix) {
      out.push_back(w.element);
    }
    return out;
  }();
  return names;
}

const std::vector<std::string>& HeaderElements() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const std::string& e : AllElements()) {
      const auto& payload = PayloadElements();
      if (std::find(payload.begin(), payload.end(), e) == payload.end()) {
        out.push_back(e);
      }
    }
    return out;
  }();
  return names;
}

struct Combo {
  const std::string* element;
  bool inline_src;
  size_t rank;  // position before shuffling
};

}  // namespace

bool ParseMix(const std::string& name, Mix* out) {
  for (Mix m : {Mix::kMissHeader, Mix::kMissPayload, Mix::kHitReplay}) {
    if (name == MixName(m)) {
      *out = m;
      return true;
    }
  }
  return false;
}

const char* MixName(Mix mix) {
  switch (mix) {
    case Mix::kMissHeader: return "miss_header";
    case Mix::kMissPayload: return "miss_payload";
    case Mix::kHitReplay: return "hit_replay";
  }
  return "?";
}

const std::vector<std::string>& AllElements() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const auto& info : clara::ElementRegistry()) {
      out.push_back(info.name);
    }
    return out;
  }();
  return names;
}

bool KnownInlineDefect(const std::string& element) {
  static const std::set<std::string> defects = {
      "firewall", "dnsproxy", "udpcount", "webgen", "synflood", "iplookup", "dpi", "ipclassifier",
  };
  return defects.count(element) != 0;
}

Schedule::Schedule(Mix mix, uint64_t seed)
    : mix_(mix), seed_(Hash(seed, static_cast<uint64_t>(mix))) {
  if (mix_ != Mix::kHitReplay) {
    return;
  }
  // The working set: every element x flow class x {by name, inline},
  // without the inline keys of known defects. Packet sizes rotate along the
  // set, the same for every seed.
  for (const std::string& e : AllElements()) {
    for (bool small : {true, false}) {
      for (bool inl : {false, true}) {
        if (inl && KnownInlineDefect(e)) {
          continue;
        }
        uint16_t pkt = kHeaderPktSizes[keys_.size() % std::size(kHeaderPktSizes)];
        keys_.push_back(MakeKey(e, inl, small, pkt, Hash(kSaltWorkingSet, keys_.size())));
      }
    }
  }
}

Key Schedule::MakeKey(const std::string& element, bool inline_src, bool small_flows,
                      uint16_t pkt_size, uint64_t salt) const {
  Key k;
  k.element = element;
  k.inline_src = inline_src;
  k.workload = small_flows ? clara::WorkloadSpec::SmallFlows(pkt_size)
                           : clara::WorkloadSpec::LargeFlows(pkt_size);
  k.workload.seed = Hash(seed_, salt);
  return k;
}

void Schedule::AppendBlock(uint64_t b, std::vector<uint32_t>* order) {
  uint64_t block_seed = Hash(seed_, 0xB10C, b);
  if (mix_ == Mix::kHitReplay) {
    std::vector<uint32_t> perm(keys_.size());
    for (size_t i = 0; i < perm.size(); ++i) {
      perm[i] = static_cast<uint32_t>(i);
    }
    Shuffle(&perm, block_seed);
    order->insert(order->end(), perm.begin(), perm.end());
    return;
  }
  // Miss mixes: each (element, mode) once per flow class and copy, small and
  // large flow classes alternating along the block; known defects by name
  // only. The packet size of each (element, mode, copy, class) is fixed, so
  // every block costs the daemon the same work whatever its number and seed;
  // the seed decides the order and the traffic each workload spec generates.
  std::vector<Combo> combos;
  if (mix_ == Mix::kMissHeader) {
    for (const std::string& e : HeaderElements()) {
      combos.push_back({&e, false, combos.size()});
      if (!KnownInlineDefect(e)) {
        combos.push_back({&e, true, combos.size()});
      }
    }
  } else {
    for (const Weighted& w : kPayloadMix) {
      const std::string& e =
          *std::find(PayloadElements().begin(), PayloadElements().end(), w.element);
      for (int c = 0; c < w.copies; ++c) {
        combos.push_back({&e, false, combos.size()});
        if (!KnownInlineDefect(e)) {
          combos.push_back({&e, true, combos.size()});
        }
      }
    }
  }
  std::vector<Combo> small = combos;
  std::vector<Combo> large = combos;
  Shuffle(&small, Hash(block_seed, 0));
  Shuffle(&large, Hash(block_seed, 1));
  const uint16_t* sizes = mix_ == Mix::kMissHeader ? kHeaderPktSizes : kPayloadPktSizes;
  size_t nsizes = mix_ == Mix::kMissHeader ? std::size(kHeaderPktSizes)
                                           : std::size(kPayloadPktSizes);
  for (size_t i = 0; i < combos.size(); ++i) {
    for (bool is_small : {true, false}) {
      const Combo& c = is_small ? small[i] : large[i];
      uint16_t pkt = sizes[(c.rank + (is_small ? 0 : nsizes / 2)) % nsizes];
      order->push_back(static_cast<uint32_t>(keys_.size()));
      keys_.push_back(MakeKey(*c.element, c.inline_src, is_small, pkt,
                              Hash(kSaltMiss, b, keys_.size())));
    }
  }
}

std::vector<Key> Schedule::ProbeRequests() const {
  // Fixed keys, the same for every workload and seed, so that the probe
  // reads the same on every run.
  std::vector<Key> out;
  for (const std::string& e : AllElements()) {
    Key a{e, true, clara::WorkloadSpec::SmallFlows(kProbePktSize)};
    a.workload.seed = Hash(kSaltProbe, out.size());
    Key b{e, false, clara::WorkloadSpec::SmallFlows(kProbePktSize)};
    b.workload.seed = Hash(kSaltProbe, out.size() + 1);
    out.push_back(a);  // A: inline first ...
    a.inline_src = false;
    out.push_back(a);  // ... then by name on the same key
    out.push_back(b);  // B: by name first ...
    b.inline_src = true;
    out.push_back(b);  // ... then inline
  }
  return out;
}

std::vector<Key> Schedule::InlineProbeRequests() const {
  std::vector<Key> out;
  for (const std::string& e : AllElements()) {
    for (bool small : {true, false}) {
      Key k{e, true, small ? clara::WorkloadSpec::SmallFlows(kProbePktSize)
                           : clara::WorkloadSpec::LargeFlows(kProbePktSize)};
      k.workload.seed = Hash(kSaltInlineProbe, out.size());
      out.push_back(k);
    }
  }
  return out;
}

}  // namespace servebench
