// Minimal leveled logging for diagnostics (fleet progress, warnings).
//
// A statement must be free when its level is off, so the level check is a
// single branch on an atomic and formatting happens only when enabled. The
// simulator does not log; its events go to a TraceSink (obs/trace.hpp).
#pragma once

#include <atomic>
#include <sstream>
#include <string>
#include <string_view>

namespace wormsim::util {

enum class LogLevel : int { Debug = 1, Info = 2, Warn = 3, Off = 4 };

/// Process-wide log sink. Tests may install a capture callback.
class Log {
 public:
  using Sink = void (*)(LogLevel, std::string_view);

  static LogLevel level() {
    return static_cast<LogLevel>(level_.load(std::memory_order_relaxed));
  }
  static void set_level(LogLevel lvl) {
    level_.store(static_cast<int>(lvl), std::memory_order_relaxed);
  }
  static bool enabled(LogLevel lvl) { return lvl >= level(); }

  /// Thread-safe like set_level: the sink pointer is atomic so a concurrent
  /// write() observes either the old or the new sink, never a torn value.
  static void set_sink(Sink sink) {
    sink_.store(sink, std::memory_order_relaxed);
  }
  static void write(LogLevel lvl, std::string_view msg);

 private:
  static std::atomic<int> level_;
  static std::atomic<Sink> sink_;
};

/// Stream-style one-shot log statement:
///   WORMSIM_LOG(Debug) << "header of " << mid << " advanced";
class LogStatement {
 public:
  explicit LogStatement(LogLevel lvl) : lvl_(lvl) {}
  ~LogStatement() { Log::write(lvl_, stream_.str()); }
  LogStatement(const LogStatement&) = delete;
  LogStatement& operator=(const LogStatement&) = delete;

  template <typename T>
  LogStatement& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel lvl_;
  std::ostringstream stream_;
};

}  // namespace wormsim::util

#define WORMSIM_LOG(level)                                              \
  if (!::wormsim::util::Log::enabled(::wormsim::util::LogLevel::level)) \
    ;                                                                   \
  else                                                                  \
    ::wormsim::util::LogStatement(::wormsim::util::LogLevel::level)
