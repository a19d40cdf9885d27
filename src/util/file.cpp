#include "util/file.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace wormsim::util {

namespace fs = std::filesystem;

bool write_file_atomic(const std::string& path, std::string_view bytes) {
  std::error_code ec;
  const fs::path dest(path);
  if (dest.has_parent_path()) fs::create_directories(dest.parent_path(), ec);

  // PID plus a per-call counter disambiguates racing writers, in this
  // process and in others.
  static std::atomic<std::uint64_t> counter{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      fs::remove(tmp, ec);
      return false;
    }
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace wormsim::util
