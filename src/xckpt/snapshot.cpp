#include "xckpt/snapshot.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>

namespace xckpt {

namespace {

// Header layout (40 bytes, all little-endian):
//   [0]  8B  magic "XMTCKPT1"
//   [8]  4B  format version
//   [12] 4B  application tag
//   [16] 8B  payload length
//   [24] 4B  payload CRC32
//   [28] 4B  reserved (zero)
//   [32] 4B  header CRC32 over bytes [0, 32)
//   [36] 4B  reserved (zero)
constexpr std::size_t kHeaderSize = 40;
constexpr std::array<std::uint8_t, 8> kMagic = {'X', 'M', 'T', 'C',
                                                'K', 'P', 'T', '1'};

void put_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

void put_le64(std::uint8_t* p, std::uint64_t v) {
  put_le32(p, static_cast<std::uint32_t>(v));
  put_le32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get_le64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(get_le32(p)) |
         (static_cast<std::uint64_t>(get_le32(p + 4)) << 32);
}

[[noreturn]] void throw_errno(const std::string& op, const std::string& path) {
  throw SnapshotError(ErrorKind::kIo,
                      op + " '" + path + "': " + std::strerror(errno));
}

/// RAII fd that closes on scope exit (close errors on the read path are
/// ignored; the write path checks them explicitly before renaming).
struct Fd {
  int fd = -1;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
};

}  // namespace

const char* error_kind_name(ErrorKind kind) {
  switch (kind) {
    case ErrorKind::kIo:
      return "io";
    case ErrorKind::kBadMagic:
      return "bad-magic";
    case ErrorKind::kBadVersion:
      return "bad-version";
    case ErrorKind::kBadCrc:
      return "bad-crc";
    case ErrorKind::kTruncated:
      return "truncated";
    case ErrorKind::kMismatch:
      return "mismatch";
  }
  return "unknown";
}

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  // Table generated once, thread-safe under C++11 static init.
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = ~seed;
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

void Writer::u32(std::uint32_t v) {
  const std::size_t n = buf_.size();
  buf_.resize(n + 4);
  put_le32(buf_.data() + n, v);
}

void Writer::u64(std::uint64_t v) {
  const std::size_t n = buf_.size();
  buf_.resize(n + 8);
  put_le64(buf_.data() + n, v);
}

void Writer::f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void Writer::str(const std::string& s) {
  u64(s.size());
  bytes(s.data(), s.size());
}

void Writer::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + size);
}

void Writer::vec_u8(const std::vector<std::uint8_t>& v) {
  u64(v.size());
  bytes(v.data(), v.size());
}

void Writer::vec_u32(const std::vector<std::uint32_t>& v) {
  u64(v.size());
  for (const std::uint32_t x : v) u32(x);
}

void Writer::vec_u64(const std::vector<std::uint64_t>& v) {
  u64(v.size());
  for (const std::uint64_t x : v) u64(x);
}

void Reader::need(std::size_t n) const {
  if (data_.size() - pos_ < n) {
    throw SnapshotError(ErrorKind::kTruncated,
                        "payload ends " + std::to_string(n) +
                            " bytes short at offset " + std::to_string(pos_));
  }
}

std::uint8_t Reader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint32_t Reader::u32() {
  need(4);
  const std::uint32_t v = get_le32(data_.data() + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  need(8);
  const std::uint64_t v = get_le64(data_.data() + pos_);
  pos_ += 8;
  return v;
}

double Reader::f64() {
  const std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string Reader::str() {
  const std::uint64_t n = u64();
  need(n);
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_),
                static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return s;
}

std::vector<std::uint8_t> Reader::vec_u8() {
  const std::uint64_t n = u64();
  need(n);
  std::vector<std::uint8_t> v(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                              data_.begin() +
                                  static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += static_cast<std::size_t>(n);
  return v;
}

std::vector<std::uint32_t> Reader::vec_u32() {
  const std::uint64_t n = u64();
  need(n * 4);
  std::vector<std::uint32_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = u32();
  return v;
}

std::vector<std::uint64_t> Reader::vec_u64() {
  const std::uint64_t n = u64();
  need(n * 8);
  std::vector<std::uint64_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = u64();
  return v;
}

void write_snapshot_file(const std::string& path, std::uint32_t app_tag,
                         std::span<const std::uint8_t> payload) {
  std::array<std::uint8_t, kHeaderSize> header{};
  std::memcpy(header.data(), kMagic.data(), kMagic.size());
  put_le32(header.data() + 8, kFormatVersion);
  put_le32(header.data() + 12, app_tag);
  put_le64(header.data() + 16, payload.size());
  put_le32(header.data() + 24, crc32(payload.data(), payload.size()));
  put_le32(header.data() + 32, crc32(header.data(), 32));

  std::string file(header.begin(), header.end());
  file.insert(file.end(), payload.begin(), payload.end());
  write_file_atomic(path, file);
}

void write_file_atomic(const std::string& path, std::string_view bytes) {
  // The staging name is unique per writer, so concurrent writers of one
  // path each rename their own complete file and the last rename wins.
  static std::atomic<std::uint64_t> counter{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid())) + "." +
      std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
  Fd fd;
  fd.fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd.fd < 0) throw_errno("open", tmp);
  try {
    const char* p = bytes.data();
    std::size_t n = bytes.size();
    while (n > 0) {
      const ::ssize_t w = ::write(fd.fd, p, n);
      if (w < 0) {
        if (errno == EINTR) continue;
        throw_errno("write", tmp);
      }
      p += w;
      n -= static_cast<std::size_t>(w);
    }
    // Data must be on disk before the rename publishes it; a crash between
    // rename and dir fsync can lose the new file but never corrupts the old.
    if (::fsync(fd.fd) != 0) throw_errno("fsync", tmp);
    const int closed = ::close(fd.fd);
    fd.fd = -1;
    if (closed != 0) throw_errno("close", tmp);
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      throw_errno("rename", tmp);
    }
  } catch (...) {
    ::unlink(tmp.c_str());
    throw;
  }

  const std::filesystem::path dir =
      std::filesystem::path(path).parent_path();
  const std::string dirs = dir.empty() ? "." : dir.string();
  Fd dfd;
  dfd.fd = ::open(dirs.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd.fd >= 0) (void)::fsync(dfd.fd);  // best effort on the dir entry
}

std::vector<std::uint8_t> read_snapshot_file(const std::string& path,
                                             std::uint32_t app_tag) {
  Fd fd;
  fd.fd = ::open(path.c_str(), O_RDONLY);
  if (fd.fd < 0) throw_errno("open", path);

  const auto read_all = [&](std::uint8_t* p, std::size_t n) -> std::size_t {
    std::size_t got = 0;
    while (got < n) {
      const ::ssize_t r = ::read(fd.fd, p + got, n - got);
      if (r < 0) {
        if (errno == EINTR) continue;
        throw_errno("read", path);
      }
      if (r == 0) break;
      got += static_cast<std::size_t>(r);
    }
    return got;
  };

  std::array<std::uint8_t, kHeaderSize> header{};
  if (read_all(header.data(), header.size()) != header.size()) {
    throw SnapshotError(ErrorKind::kTruncated,
                        "'" + path + "' shorter than the snapshot header");
  }
  if (std::memcmp(header.data(), kMagic.data(), kMagic.size()) != 0) {
    throw SnapshotError(ErrorKind::kBadMagic,
                        "'" + path + "' is not a snapshot file");
  }
  if (const std::uint32_t got = crc32(header.data(), 32);
      got != get_le32(header.data() + 32)) {
    throw SnapshotError(ErrorKind::kBadCrc, "'" + path + "' header checksum");
  }
  if (const std::uint32_t v = get_le32(header.data() + 8);
      v != kFormatVersion) {
    throw SnapshotError(ErrorKind::kBadVersion,
                        "'" + path + "' is format v" + std::to_string(v) +
                            ", this build reads v" +
                            std::to_string(kFormatVersion));
  }
  if (const std::uint32_t tag = get_le32(header.data() + 12);
      tag != app_tag) {
    throw SnapshotError(ErrorKind::kMismatch,
                        "'" + path + "' belongs to a different application");
  }
  const std::uint64_t size = get_le64(header.data() + 16);
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(size));
  if (read_all(payload.data(), payload.size()) != payload.size()) {
    throw SnapshotError(ErrorKind::kTruncated,
                        "'" + path + "' payload shorter than declared");
  }
  std::uint8_t extra = 0;
  if (read_all(&extra, 1) != 0) {
    throw SnapshotError(ErrorKind::kBadCrc,
                        "'" + path + "' longer than declared (torn write?)");
  }
  if (const std::uint32_t got = crc32(payload.data(), payload.size());
      got != get_le32(header.data() + 24)) {
    throw SnapshotError(ErrorKind::kBadCrc, "'" + path + "' payload checksum");
  }
  return payload;
}

}  // namespace xckpt
