// Typed trace events for simulator runs.
//
// The simulator's narration used to be formatted strings; these events are
// the structured replacement. Each carries the cycle plus the ids involved,
// so consumers can filter, aggregate or replay without parsing text. Two
// exporters are provided: JSONL (one event object per line, easy to grep
// and stream) and the Chrome trace-event format, which renders in
// chrome://tracing / https://ui.perfetto.dev as per-message instant marks
// and per-channel occupancy spans.
//
// narrate() renders one recorded event as a line of prose (only the four
// message-lifecycle kinds have one; channel-level and blocked events
// return empty).
#pragma once

#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "util/ids.hpp"

namespace wormsim::topo {
class Network;
}

namespace wormsim::obs {

enum class TraceEventKind : std::uint8_t {
  kInject,          ///< header entered its first channel
  kHeaderAdvance,   ///< header moved into the next channel
  kBlocked,         ///< header wanted a channel; every candidate is owned
  kDelivered,       ///< header consumed at the destination node
  kConsumed,        ///< tail flit consumed; message complete
  kChannelAcquire,  ///< message took ownership of a channel
  kChannelRelease,  ///< tail drained; channel freed
};

/// Stable lowercase name ("inject", "header-advance", ...).
const char* kind_name(TraceEventKind kind);

struct TraceEvent {
  std::uint64_t cycle = 0;
  TraceEventKind kind = TraceEventKind::kInject;
  MessageId message;
  /// The channel involved (entered, blocked on, acquired, released);
  /// invalid for kConsumed.
  ChannelId channel = ChannelId::invalid();
  /// The destination node for kDelivered; invalid otherwise.
  NodeId node = NodeId::invalid();
};

/// Receives events as the simulator produces them. Implementations must not
/// re-enter the simulator.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const TraceEvent& event) = 0;
};

/// In-memory sink: records everything for post-run export or assertions.
class TraceBuffer : public TraceSink {
 public:
  void on_event(const TraceEvent& event) override {
    events_.push_back(event);
  }
  [[nodiscard]] std::span<const TraceEvent> events() const { return events_; }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  void clear() { events_.clear(); }

 private:
  std::vector<TraceEvent> events_;
};

/// The one-line narration of a message-lifecycle event (inject,
/// header-advance, delivered, consumed), or empty for the kinds that have
/// none (blocked, channel-acquire, channel-release).
std::string narrate(const TraceEvent& event, const topo::Network& net);

/// One event as a single-line JSON object (no trailing newline). With a
/// network, channel/node fields gain human-readable "_name" companions.
std::string to_json_line(const TraceEvent& event,
                         const topo::Network* net = nullptr);

/// JSONL export: to_json_line per event, newline-separated.
void write_jsonl(std::ostream& out, std::span<const TraceEvent> events,
                 const topo::Network* net = nullptr);

/// Chrome trace-event format (one JSON object with a "traceEvents" array).
/// Message-lifecycle events become instant events on a per-message track
/// (pid 0, tid = message id); channel acquire/release become duration
/// begin/end pairs on a per-channel track (pid 1, tid = channel id), so the
/// channel-occupancy timeline is directly visible. Timestamps are cycles
/// (the viewer's microseconds are our cycles).
void write_chrome_trace(std::ostream& out, std::span<const TraceEvent> events,
                        const topo::Network* net = nullptr);

}  // namespace wormsim::obs
