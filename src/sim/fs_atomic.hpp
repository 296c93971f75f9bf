#pragma once
// Crash-safe file writes.
//
// Every artifact the repo treats as a completion marker (run artifacts,
// goldens, sweep point artifacts, weight caches, CSV telemetry) must become
// visible atomically: a crash mid-write must leave either the old file or no
// file, never a truncated one that poisons golden gates or resume detection.
// `atomic_write_file` writes `<path>.tmp`, flushes it to disk (fsync), and
// renames it over the target — rename(2) is atomic on POSIX filesystems.

#include <string>
#include <string_view>

namespace pet::sim {

/// Durably replace `path` with `contents`. Returns false (and removes the
/// temporary) on any I/O failure; the previous file, if any, is untouched.
[[nodiscard]] bool atomic_write_file(const std::string& path,
                                     std::string_view contents);

}  // namespace pet::sim
