// The paper's family of cyclic-dependency networks (Sections 4 and 6,
// generalized to cover Figures 2 and 3 as well).
//
// Every example network in the paper has the same skeleton:
//
//   Src --c_s--> N* --arm_i--> P_i ==segment_i==> P_{i+1} ==...  (a ring)
//
// A directed ring of channels is divided into m segments; message M_i enters
// the ring at node P_i, must *hold* the hold_i channels of segment i to block
// its predecessor, and is destined for D_i — the node one channel into
// segment i+1 — so the messages' dependencies close a cycle in the CDG
// (M_i's route passes through D_{i-1}). Messages reach the ring either
// through the shared channel c_s = Src->N* followed by an access arm
// (access_i channels counting c_s itself), or, for the Figure-3(f) fourth
// message, through a private arm from its own source.
//
// The Figure-1 instance is messages {(a,h)} = {(2,3), (3,4), (2,3), (3,4)};
// the Section-6 generalization stretches the segments, and the Figure-2 /
// Figure-3 instances use two / three sharing messages.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "routing/table_routing.hpp"
#include "sim/types.hpp"
#include "topo/network.hpp"

namespace wormsim::core {

/// Parameters of one ring message.
struct CyclicMessageParams {
  /// a_i: channels from (and including) the shared channel c_s to the ring
  /// entry node P_i, when uses_shared (so >= 2: c_s plus at least one arm
  /// channel). When !uses_shared: the length of the private arm from the
  /// message's own source node to P_i (>= 1).
  int access = 2;
  /// h_i: segment length — the ring channels this message must hold in a
  /// deadlock configuration. Its destination D_i lies one channel further
  /// (d_i = hold_i + 1 ring channels from entry to destination).
  int hold = 3;
  /// Whether the message reaches the ring through c_s (all messages in
  /// Figures 1 and 2; three of four in Figure 3(f)).
  bool uses_shared = true;
};

struct CyclicFamilySpec {
  std::string name = "cyclic-family";
  /// Ring messages in cycle order: M_i blocks at M_{i+1}'s entry channel.
  std::vector<CyclicMessageParams> messages;
  /// Adds hub completion: channels x->N* and N*->x for every node plus
  /// routes for every remaining pair via N*, making the algorithm total
  /// (the paper's "all other messages route through N*"). The extra routes
  /// add no CDG cycles.
  bool hub_completion = false;
};

/// A built instance: network + oblivious routing algorithm + metadata tying
/// each message to its ring structure. Heap-backed so the object is movable
/// while PathTable keeps a stable reference to the network.
class CyclicFamily {
 public:
  explicit CyclicFamily(CyclicFamilySpec spec);

  struct MessageInfo {
    NodeId source;
    NodeId dest;
    std::vector<ChannelId> path;       ///< full route source -> dest
    ChannelId entry;                   ///< first ring channel (at P_i)
    std::vector<ChannelId> segment;    ///< the hold_i ring channels
    ChannelId blocking;                ///< the ring channel where M_i blocks
    CyclicMessageParams params;
  };

  [[nodiscard]] const CyclicFamilySpec& spec() const { return spec_; }
  [[nodiscard]] const topo::Network& net() const { return *net_; }
  [[nodiscard]] const routing::PathTable& algorithm() const {
    return *routing_;
  }
  [[nodiscard]] ChannelId shared_channel() const { return shared_; }
  [[nodiscard]] NodeId src_node() const { return src_; }
  [[nodiscard]] const std::vector<MessageInfo>& messages() const {
    return messages_;
  }
  /// The full ring, in cycle order starting at P_0.
  [[nodiscard]] const std::vector<ChannelId>& ring() const { return ring_; }

  /// Message specs for the deadlock search: message i with its minimum
  /// deadlock-forming length (hold_i flits) plus `extra_length`.
  [[nodiscard]] std::vector<sim::MessageSpec> message_specs(
      std::uint32_t extra_length = 0) const;

 private:
  CyclicFamilySpec spec_;
  std::unique_ptr<topo::Network> net_;
  std::unique_ptr<routing::PathTable> routing_;
  ChannelId shared_;
  NodeId src_;
  std::vector<MessageInfo> messages_;
  std::vector<ChannelId> ring_;
};

/// The Figure-1 network / Cyclic Dependency routing algorithm (Section 4).
CyclicFamilySpec fig1_spec(bool hub_completion = false);

/// The Figure-2 network: two messages sharing c_s (Theorem 4's deadlock).
CyclicFamilySpec fig2_spec(bool hub_completion = false);

/// The Section-6 generalization: the Figure-1 shape with the even messages'
/// access arms (and segments) stretched so the escape margin is k cycles —
/// forming the deadlock then requires stalling each odd in-flight message
/// for ~k extra cycles even though its output channels are free. k = 1
/// reproduces Figure 1 exactly.
CyclicFamilySpec generalized_spec(int k, bool hub_completion = false);

}  // namespace wormsim::core
