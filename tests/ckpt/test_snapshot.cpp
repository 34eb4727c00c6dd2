// Unit tests for the xckpt storage layer: payload Writer/Reader bounds and
// bit-exactness, snapshot-file validation (magic/version/tag/CRC/length),
// the generation ring's corruption fallback, and atomic-write races.
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "xckpt/ring.hpp"
#include "xckpt/snapshot.hpp"

namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test, removed on teardown.
class CkptDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("xckpt-test-" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return dir_ + "/" + name;
  }

  std::string dir_;
};

void corrupt_at(const std::string& path, std::int64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(offset);
  char b = 0;
  f.get(b);
  f.seekp(offset);
  f.put(static_cast<char>(b ^ 0xff));
}

TEST(SnapshotPayload, RoundTripsEveryTypeBitExactly) {
  xckpt::Writer w;
  w.u8(0xab);
  w.u32(0xdeadbeefu);
  w.u64(~std::uint64_t{0});
  w.f64(0.1);  // not exactly representable: bit-pattern storage must hold
  w.f64(-0.0);
  w.f64(std::numeric_limits<double>::infinity());
  w.str("phase r8 i0");
  w.vec_u8({1, 2, 3});
  w.vec_u32({});
  w.vec_u64({~std::uint64_t{0}, 7});

  xckpt::Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), ~std::uint64_t{0});
  EXPECT_EQ(r.f64(), 0.1);
  const double neg_zero = r.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(r.str(), "phase r8 i0");
  EXPECT_EQ(r.vec_u8(), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_TRUE(r.vec_u32().empty());
  EXPECT_EQ(r.vec_u64(), (std::vector<std::uint64_t>{~std::uint64_t{0}, 7}));
  EXPECT_TRUE(r.done());
}

TEST(SnapshotPayload, ReadPastEndThrowsTruncated) {
  xckpt::Writer w;
  w.u32(42);
  xckpt::Reader r(w.data());
  (void)r.u32();
  try {
    (void)r.u64();
    FAIL() << "read past end did not throw";
  } catch (const xckpt::SnapshotError& e) {
    EXPECT_EQ(e.kind, xckpt::ErrorKind::kTruncated);
  }
}

TEST(SnapshotPayload, TruncatedVectorLengthThrowsNotAllocates) {
  // A corrupt length prefix claiming 2^60 elements must fail the bounds
  // check, not attempt the allocation.
  xckpt::Writer w;
  w.u64(std::uint64_t{1} << 60);
  xckpt::Reader r(w.data());
  EXPECT_THROW((void)r.vec_u64(), xckpt::SnapshotError);
}

TEST_F(CkptDir, FileRoundTripAndTagCheck) {
  xckpt::Writer w;
  w.str("hello");
  xckpt::write_snapshot_file(path("a.xckpt"), xckpt::kTagTest, w.data());
  const auto payload =
      xckpt::read_snapshot_file(path("a.xckpt"), xckpt::kTagTest);
  xckpt::Reader r(payload);
  EXPECT_EQ(r.str(), "hello");

  try {
    (void)xckpt::read_snapshot_file(path("a.xckpt"), xckpt::kTagSoakStats);
    FAIL() << "wrong app tag accepted";
  } catch (const xckpt::SnapshotError& e) {
    EXPECT_EQ(e.kind, xckpt::ErrorKind::kMismatch);
  }
}

TEST_F(CkptDir, DamageIsTypedNotGarbage) {
  xckpt::Writer w;
  for (int i = 0; i < 64; ++i) w.u64(static_cast<std::uint64_t>(i));
  xckpt::write_snapshot_file(path("a.xckpt"), xckpt::kTagTest, w.data());
  const auto size = fs::file_size(path("a.xckpt"));

  // Bad magic.
  fs::copy_file(path("a.xckpt"), path("magic.xckpt"));
  corrupt_at(path("magic.xckpt"), 0);
  try {
    (void)xckpt::read_snapshot_file(path("magic.xckpt"), xckpt::kTagTest);
    FAIL();
  } catch (const xckpt::SnapshotError& e) {
    EXPECT_EQ(e.kind, xckpt::ErrorKind::kBadMagic);
  }

  // Flipped payload bit.
  fs::copy_file(path("a.xckpt"), path("crc.xckpt"));
  corrupt_at(path("crc.xckpt"), static_cast<std::int64_t>(size) - 9);
  try {
    (void)xckpt::read_snapshot_file(path("crc.xckpt"), xckpt::kTagTest);
    FAIL();
  } catch (const xckpt::SnapshotError& e) {
    EXPECT_EQ(e.kind, xckpt::ErrorKind::kBadCrc);
  }

  // Torn tail (truncated mid-payload).
  fs::copy_file(path("a.xckpt"), path("torn.xckpt"));
  fs::resize_file(path("torn.xckpt"), size / 2);
  try {
    (void)xckpt::read_snapshot_file(path("torn.xckpt"), xckpt::kTagTest);
    FAIL();
  } catch (const xckpt::SnapshotError& e) {
    EXPECT_EQ(e.kind, xckpt::ErrorKind::kTruncated);
  }

  // The original file is still pristine.
  EXPECT_NO_THROW(
      (void)xckpt::read_snapshot_file(path("a.xckpt"), xckpt::kTagTest));
}

std::vector<std::uint8_t> payload_of(std::uint64_t n) {
  xckpt::Writer w;
  w.u64(n);
  return {w.data().begin(), w.data().end()};
}

TEST_F(CkptDir, RingKeepsWindowAndLoadsNewest) {
  xckpt::CheckpointRing ring(dir_, xckpt::kTagTest, /*keep=*/3);
  for (std::uint64_t g = 1; g <= 5; ++g) {
    EXPECT_EQ(ring.save(payload_of(g)), g);
  }
  EXPECT_EQ(ring.latest_generation(), 5u);
  // Only the keep-window survives on disk.
  unsigned files = 0;
  for (const auto& e : fs::directory_iterator(dir_)) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 3u);

  auto loaded = ring.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->generation, 5u);
  EXPECT_TRUE(loaded->skipped.empty());
  xckpt::Reader r(loaded->payload);
  EXPECT_EQ(r.u64(), 5u);
}

TEST_F(CkptDir, RingFallsBackPastCorruptGenerations) {
  xckpt::CheckpointRing ring(dir_, xckpt::kTagTest, /*keep=*/3);
  for (std::uint64_t g = 1; g <= 4; ++g) ring.save(payload_of(g));
  corrupt_at(dir_ + "/ckpt-000000000004.xckpt", 30);

  auto loaded = ring.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->generation, 3u);
  EXPECT_EQ(loaded->skipped.size(), 1u);
  xckpt::Reader r(loaded->payload);
  EXPECT_EQ(r.u64(), 3u);

  // All generations damaged -> nullopt, every rejection reported.
  corrupt_at(dir_ + "/ckpt-000000000003.xckpt", 30);
  corrupt_at(dir_ + "/ckpt-000000000002.xckpt", 30);
  EXPECT_FALSE(ring.load_latest().has_value());
  EXPECT_EQ(ring.skipped_all().size(), 3u);

  // The ring still accepts new generations after total loss.
  EXPECT_EQ(ring.save(payload_of(9)), 5u);
  auto again = ring.load_latest();
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->generation, 5u);
}

TEST_F(CkptDir, AtomicWriteRacersLeaveOneWholeFileAndNoTemps) {
  // Eight writers replace one path at once, each with its own 64 KiB of a
  // distinct byte: the survivor is one writer's bytes, never a mix, and
  // every staging file is gone.
  const std::string target = path("shared.bin");
  constexpr std::size_t kBytes = 64 * 1024;
  std::vector<std::thread> writers;
  for (int w = 0; w < 8; ++w) {
    writers.emplace_back([&target, w] {
      const std::string bytes(kBytes, static_cast<char>('a' + w));
      xckpt::write_file_atomic(target, bytes);
    });
  }
  for (auto& t : writers) t.join();

  std::ifstream in(target, std::ios::binary);
  const std::string got((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  ASSERT_EQ(got.size(), kBytes);
  EXPECT_GE(got[0], 'a');
  EXPECT_LE(got[0], 'h');
  EXPECT_EQ(got, std::string(kBytes, got[0]));
  for (const auto& entry : fs::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().filename().string(), "shared.bin");
  }
}

}  // namespace
