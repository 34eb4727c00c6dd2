// xckpt: durable checkpoint/restore for long simulations.
//
// The cycle-accurate runs the paper's results rest on are hours-long at the
// headline scales; a crash, OOM-kill or Ctrl-C must not cost the whole run.
// This layer provides the storage half of that contract:
//
//  - Snapshots are length-prefixed binary payloads built with Writer and
//    parsed with Reader. Every read is bounds-checked; running off the end
//    of a (truncated) payload throws a typed SnapshotError instead of
//    reading garbage.
//  - Snapshot *files* carry a magic, a format version, an application tag
//    (so a soak-stats file can never be mistaken for a machine snapshot),
//    the payload length, and CRC32s over both the header and the payload.
//    A torn, truncated, or bit-flipped file is detected, never half-applied.
//  - Writes are atomic and durable (write_file_atomic): bytes ->
//    <path>.tmp.<pid>.<n>, fsync, rename over <path>, fsync the directory.
//    A crash mid-write leaves the previous file intact. This is the one
//    durable-write primitive: the corpus reproducers (xcheck) and the soak
//    stats file use it too.
//
// The generation ring that stacks fallback on top of this lives in
// ring.hpp.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "xutil/check.hpp"

namespace xckpt {

/// What a snapshot read/write failed on. kMismatch covers semantic
/// incompatibility (wrong app tag, wrong machine shape) detected after the
/// bytes themselves checked out.
enum class ErrorKind {
  kIo,          ///< open/read/write/fsync/rename failed
  kBadMagic,    ///< not a snapshot file at all
  kBadVersion,  ///< snapshot format newer/older than this build understands
  kBadCrc,      ///< header or payload checksum mismatch (bit rot, torn write)
  kTruncated,   ///< file (or payload field) shorter than its declared length
  kMismatch,    ///< valid snapshot for a different application/run/config
};

[[nodiscard]] const char* error_kind_name(ErrorKind kind);

/// Typed failure of the snapshot layer. Callers that implement fallback
/// (the generation ring, the CLI resume path) catch this and try the next
/// generation; everything else lets it propagate as an xutil::Error.
class SnapshotError : public xutil::Error {
 public:
  SnapshotError(ErrorKind kind, const std::string& what)
      : xutil::Error(std::string("snapshot: ") + error_kind_name(kind) +
                     ": " + what),
        kind(kind) {}

  ErrorKind kind;
};

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320), the checksum in the file
/// header. `seed` chains incremental computations.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t size,
                                  std::uint32_t seed = 0);

/// Append-only builder for a snapshot payload. Integers are little-endian
/// fixed width; doubles are stored as their IEEE-754 bit pattern so a
/// restore is bit-exact; strings and blobs are length-prefixed.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);
  void str(const std::string& s);
  void bytes(const void* data, std::size_t size);

  void vec_u8(const std::vector<std::uint8_t>& v);
  void vec_u32(const std::vector<std::uint32_t>& v);
  void vec_u64(const std::vector<std::uint64_t>& v);

  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return buf_; }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked cursor over a snapshot payload. Any read past the end
/// throws SnapshotError(kTruncated).
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();

  [[nodiscard]] std::vector<std::uint8_t> vec_u8();
  [[nodiscard]] std::vector<std::uint32_t> vec_u32();
  [[nodiscard]] std::vector<std::uint64_t> vec_u64();

  /// Bytes not yet consumed.
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool done() const { return pos_ == data_.size(); }

 private:
  void need(std::size_t n) const;
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Replaces `path` with exactly `bytes`, atomically and durably: writes a
/// temp file beside it (named from the pid and a process-wide counter, so
/// concurrent writers never share one), fsyncs it, renames it over `path`
/// and fsyncs the directory. Readers see the old file or the new one,
/// never a torn mix. Throws SnapshotError(kIo) on filesystem failure,
/// after removing the temp file.
void write_file_atomic(const std::string& path, std::string_view bytes);

/// Writes `payload` to `path` with write_file_atomic under the versioned,
/// checksummed header. Throws SnapshotError(kIo) on filesystem failure.
void write_snapshot_file(const std::string& path, std::uint32_t app_tag,
                         std::span<const std::uint8_t> payload);

/// Reads and fully validates a snapshot file: magic, header CRC, format
/// version, application tag, declared length vs file size, payload CRC.
/// Throws the matching SnapshotError on any damage; returns the payload
/// only when every check passed.
[[nodiscard]] std::vector<std::uint8_t> read_snapshot_file(
    const std::string& path, std::uint32_t app_tag);

/// Current on-disk format version (header layout, not payload schema —
/// payloads carry their own schema versions).
inline constexpr std::uint32_t kFormatVersion = 1;

/// Application tags. New snapshot producers register here so files are
/// never cross-interpreted.
inline constexpr std::uint32_t kTagMachineRun = 0x4d52554eu;  // "MRUN"
inline constexpr std::uint32_t kTagSoakStats = 0x534f414bu;   // "SOAK"
inline constexpr std::uint32_t kTagTest = 0x54455354u;        // "TEST"

}  // namespace xckpt
