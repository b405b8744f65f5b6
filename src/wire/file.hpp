/// @file
/// Whole-file I/O behind the chunk-stream loaders, the dispatcher's child
/// streams and the report writers; each maps a failure onto its own
/// error taxonomy.
#pragma once

#include <string>
#include <string_view>

namespace hs::wire {

enum class FileReadStatus { kOk, kOpenFailed, kReadError };
FileReadStatus read_whole_file(const std::string& path, std::string& out);

/// Creates or truncates `path` and writes `content`. False (errno set)
/// when any step fails, the final flush at close included — a full disk
/// often shows only there.
bool write_file(const std::string& path, std::string_view content);

}  // namespace hs::wire
