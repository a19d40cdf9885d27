#include "obs/trace.hpp"

#include "obs/json.hpp"
#include "topo/network.hpp"

namespace wormsim::obs {

const char* kind_name(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kInject: return "inject";
    case TraceEventKind::kHeaderAdvance: return "header-advance";
    case TraceEventKind::kBlocked: return "blocked";
    case TraceEventKind::kDelivered: return "delivered";
    case TraceEventKind::kConsumed: return "consumed";
    case TraceEventKind::kChannelAcquire: return "channel-acquire";
    case TraceEventKind::kChannelRelease: return "channel-release";
  }
  return "unknown";
}

std::string narrate(const TraceEvent& event, const topo::Network& net) {
  const std::string m = "m" + std::to_string(event.message.value());
  switch (event.kind) {
    case TraceEventKind::kInject:
      return m + " injected into " + net.channel(event.channel).name;
    case TraceEventKind::kHeaderAdvance:
      return m + " header -> " + net.channel(event.channel).name;
    case TraceEventKind::kDelivered:
      return "header of " + m + " consumed at " + net.node_name(event.node);
    case TraceEventKind::kConsumed:
      return m + " fully consumed";
    case TraceEventKind::kBlocked:
    case TraceEventKind::kChannelAcquire:
    case TraceEventKind::kChannelRelease:
      return {};
  }
  return {};
}

std::string to_json_line(const TraceEvent& event, const topo::Network* net) {
  std::string out = "{\"cycle\":" +
                    json::number(static_cast<double>(event.cycle)) +
                    ",\"kind\":" + json::quote(kind_name(event.kind)) +
                    ",\"message\":" +
                    json::number(static_cast<double>(event.message.value()));
  if (event.channel.valid()) {
    out += ",\"channel\":" +
           json::number(static_cast<double>(event.channel.value()));
    if (net != nullptr)
      out += ",\"channel_name\":" + json::quote(net->channel(event.channel).name);
  }
  if (event.node.valid()) {
    out += ",\"node\":" + json::number(static_cast<double>(event.node.value()));
    if (net != nullptr)
      out += ",\"node_name\":" + json::quote(net->node_name(event.node));
  }
  out += "}";
  return out;
}

void write_jsonl(std::ostream& out, std::span<const TraceEvent> events,
                 const topo::Network* net) {
  for (const TraceEvent& event : events)
    out << to_json_line(event, net) << '\n';
}

namespace {

std::string chrome_args(const TraceEvent& event, const topo::Network* net) {
  std::string args =
      "{\"message\":" + json::number(static_cast<double>(event.message.value()));
  if (event.channel.valid()) {
    args += ",\"channel\":" +
            json::number(static_cast<double>(event.channel.value()));
    if (net != nullptr)
      args +=
          ",\"channel_name\":" + json::quote(net->channel(event.channel).name);
  }
  if (event.node.valid() && net != nullptr)
    args += ",\"node_name\":" + json::quote(net->node_name(event.node));
  args += "}";
  return args;
}

}  // namespace

void write_chrome_trace(std::ostream& out, std::span<const TraceEvent> events,
                        const topo::Network* net) {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& record) {
    if (!first) out << ',';
    first = false;
    out << '\n' << record;
  };
  for (const TraceEvent& event : events) {
    const std::string ts = json::number(static_cast<double>(event.cycle));
    switch (event.kind) {
      case TraceEventKind::kChannelAcquire:
      case TraceEventKind::kChannelRelease: {
        // Channel-occupancy span on the channel's own track. The span name
        // is the owning message so stacked worms are tellable apart.
        const bool begin = event.kind == TraceEventKind::kChannelAcquire;
        std::string name = "m" + std::to_string(event.message.value());
        if (net != nullptr && event.channel.valid())
          name += " @ " + net->channel(event.channel).name;
        emit("{\"name\":" + json::quote(name) + ",\"ph\":\"" +
             (begin ? 'B' : 'E') + "\",\"ts\":" + ts +
             ",\"pid\":1,\"tid\":" +
             json::number(static_cast<double>(event.channel.value())) +
             ",\"args\":" + chrome_args(event, net) + "}");
        break;
      }
      default: {
        // Message-lifecycle instant on the message's track.
        emit("{\"name\":" + json::quote(kind_name(event.kind)) +
             ",\"ph\":\"i\",\"s\":\"t\",\"ts\":" + ts +
             ",\"pid\":0,\"tid\":" +
             json::number(static_cast<double>(event.message.value())) +
             ",\"args\":" + chrome_args(event, net) + "}");
        break;
      }
    }
  }
  // Track names so the viewer labels rows meaningfully.
  emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"messages\"}}");
  emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"channels\"}}");
  out << "\n]}\n";
}

}  // namespace wormsim::obs
