// Whole-file reads and whole-or-nothing file publication: the one copy
// behind the status heartbeat, the truth store's snapshot and the run
// reports.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace wormsim::util {

/// Publishes `bytes` at `path` whole-or-not-at-all: they go to a unique
/// sibling temp file `<path>.tmp.<pid>.<n>` (same directory, so the same
/// filesystem), which is then rename(2)d over the destination. A reader
/// sees the previous file or the new one, never a torn mix, and racing
/// writers never share a temp file. Creates missing parent directories.
/// Returns false on I/O failure (the destination is left untouched).
[[nodiscard]] bool write_file_atomic(const std::string& path,
                                     std::string_view bytes);

/// Reads a whole file; nullopt when it cannot be opened.
[[nodiscard]] std::optional<std::string> read_file(const std::string& path);

}  // namespace wormsim::util
