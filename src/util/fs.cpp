#include "util/fs.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "util/format.h"

namespace dras::util {

namespace {

[[noreturn]] void fail(const std::filesystem::path& path,
                       std::string_view action) {
  throw std::runtime_error(format("cannot {} '{}': {}", action, path.string(),
                                  std::strerror(errno)));
}

/// fsync the directory containing `path` so the rename itself is durable.
/// Best effort: some filesystems refuse to open directories for writing.
void sync_parent_dir(const std::filesystem::path& path) {
  const auto dir = path.has_parent_path() ? path.parent_path()
                                          : std::filesystem::path(".");
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

void atomic_write_file(const std::filesystem::path& path,
                       std::string_view contents) {
  if (path.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(path.parent_path(), ec);
  }
  const std::filesystem::path tmp =
      path.string() + format(".tmp.{}", static_cast<long>(::getpid()));

  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) fail(tmp, "open");

  const char* data = contents.data();
  std::size_t left = contents.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, data, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      errno = saved;
      fail(tmp, "write");
    }
    data += n;
    left -= static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    errno = saved;
    fail(tmp, "fsync");
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    fail(tmp, "close");
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int saved = errno;
    ::unlink(tmp.c_str());
    errno = saved;
    fail(path, "rename into");
  }
  sync_parent_dir(path);
}

std::string read_file(const std::filesystem::path& path,
                      std::size_t max_bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw std::runtime_error(
        format("cannot open '{}' for reading", path.string()));
  std::string contents;
  // One allocation for the whole file: growing by 64 KB appends would
  // re-allocate and copy it at every doubling.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (!ec && size <= max_bytes) contents.reserve(size);
  char chunk[1 << 16];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    contents.append(chunk, static_cast<std::size_t>(in.gcount()));
    if (contents.size() > max_bytes)
      throw std::runtime_error(format("'{}' exceeds the {}-byte read limit",
                                      path.string(), max_bytes));
  }
  return contents;
}

bool is_atomic_temp_file(const std::filesystem::path& path) {
  return path.filename().string().find(".tmp.") != std::string::npos;
}

}  // namespace dras::util
