#include "wire/file.hpp"

#include <cstdio>

namespace hs::wire {

FileReadStatus read_whole_file(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return FileReadStatus::kOpenFailed;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  return read_error ? FileReadStatus::kReadError : FileReadStatus::kOk;
}

bool write_file(const std::string& path, std::string_view content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  const std::size_t written = std::fwrite(content.data(), 1, content.size(), f);
  // Close unconditionally — a short write must not leak the handle.
  const bool closed = std::fclose(f) == 0;
  return written == content.size() && closed;
}

}  // namespace hs::wire
