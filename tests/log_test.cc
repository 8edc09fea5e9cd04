#include "lsm/log_reader.h"
#include "lsm/log_writer.h"

#include <set>

#include "gtest/gtest.h"
#include "test_util.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/random.h"

namespace shield {
namespace log {
namespace {

class LogTest : public ::testing::Test {
 protected:
  LogTest() : env_(NewMemEnv()) { Reset(); }

  void Reset() {
    env_->NewWritableFile("/log", &dest_);
    writer_ = std::make_unique<Writer>(dest_.get());
  }

  void Write(const std::string& record) {
    ASSERT_TRUE(writer_->AddRecord(record).ok());
  }

  struct CountingReporter : public Reader::Reporter {
    size_t dropped_bytes = 0;
    int corruptions = 0;
    void Corruption(size_t bytes, const Status&) override {
      dropped_bytes += bytes;
      corruptions++;
    }
  };

  std::vector<std::string> ReadAll(CountingReporter* reporter = nullptr) {
    std::unique_ptr<SequentialFile> file;
    EXPECT_TRUE(env_->NewSequentialFile("/log", &file).ok());
    Reader reader(file.get(), reporter);
    std::vector<std::string> records;
    Slice record;
    std::string scratch;
    while (reader.ReadRecord(&record, &scratch)) {
      records.push_back(record.ToString());
    }
    return records;
  }

  // Direct byte-level tampering of the backing file.
  void CorruptByte(size_t offset) {
    std::string contents;
    ASSERT_TRUE(ReadFileToString(env_.get(), "/log", &contents).ok());
    ASSERT_LT(offset, contents.size());
    contents[offset] ^= 0x7f;
    ASSERT_TRUE(WriteStringToFile(env_.get(), contents, "/log", false).ok());
  }

  void TruncateTo(size_t size) {
    std::string contents;
    ASSERT_TRUE(ReadFileToString(env_.get(), "/log", &contents).ok());
    contents.resize(size);
    ASSERT_TRUE(WriteStringToFile(env_.get(), contents, "/log", false).ok());
  }

  void ResetPadded(const std::vector<uint32_t>& buckets) {
    env_->NewWritableFile("/log", &dest_);
    writer_ = std::make_unique<Writer>(dest_.get(), 0, buckets, nullptr);
  }

  // One on-wire record header as the storage tier sees it.
  struct PhysRecord {
    uint8_t type;
    uint32_t length;
  };

  // Walks the physical block structure the way an observer of the
  // raw file would: headers in sequence, zero-type/zero-length skips
  // the rest of the block (trailer fill).
  std::vector<PhysRecord> PhysicalRecords() {
    std::string contents;
    EXPECT_TRUE(ReadFileToString(env_.get(), "/log", &contents).ok());
    std::vector<PhysRecord> out;
    size_t offset = 0;
    while (offset + kHeaderSize <= contents.size()) {
      const size_t block_left = kBlockSize - (offset % kBlockSize);
      if (block_left < kHeaderSize) {
        offset += block_left;
        continue;
      }
      const uint8_t* p =
          reinterpret_cast<const uint8_t*>(contents.data() + offset);
      const uint32_t length =
          static_cast<uint32_t>(p[4]) | (static_cast<uint32_t>(p[5]) << 8);
      const uint8_t type = p[6];
      if (type == kZeroType && length == 0) {
        offset += block_left;  // trailer fill
        continue;
      }
      out.push_back({type, length});
      offset += kHeaderSize + length;
    }
    return out;
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<WritableFile> dest_;
  std::unique_ptr<Writer> writer_;
};

// Forwards to a base file but fails exactly one Append on demand,
// simulating a transient WAL write fault.
class FlakyFile : public WritableFile {
 public:
  explicit FlakyFile(WritableFile* base) : base_(base) {}

  Status Append(const Slice& data) override {
    if (fail_next_) {
      fail_next_ = false;
      return Status::IOError("injected append failure");
    }
    return base_->Append(data);
  }
  Status Flush() override { return base_->Flush(); }
  Status Sync() override { return base_->Sync(); }
  Status Close() override { return base_->Close(); }
  uint64_t GetFileSize() const override { return base_->GetFileSize(); }

  void FailNextAppend() { fail_next_ = true; }

 private:
  WritableFile* const base_;
  bool fail_next_ = false;
};

TEST_F(LogTest, EmptyLog) { EXPECT_TRUE(ReadAll().empty()); }

TEST_F(LogTest, SmallRecords) {
  Write("foo");
  Write("bar");
  Write("");
  Write("xxxx");
  const auto records = ReadAll();
  ASSERT_EQ(4u, records.size());
  EXPECT_EQ("foo", records[0]);
  EXPECT_EQ("bar", records[1]);
  EXPECT_EQ("", records[2]);
  EXPECT_EQ("xxxx", records[3]);
}

TEST_F(LogTest, RecordSpanningBlocks) {
  // Larger than one 32 KiB block: forces FIRST/MIDDLE/LAST fragments.
  const std::string big(100000, 'A');
  const std::string small = "small";
  Write(big);
  Write(small);
  const auto records = ReadAll();
  ASSERT_EQ(2u, records.size());
  EXPECT_EQ(big, records[0]);
  EXPECT_EQ(small, records[1]);
}

TEST_F(LogTest, ManyRandomRecords) {
  Random rnd(301);
  std::vector<std::string> expected;
  for (int i = 0; i < 500; i++) {
    std::string record(rnd.Skewed(12), static_cast<char>('a' + i % 26));
    expected.push_back(record);
    Write(record);
  }
  EXPECT_EQ(expected, ReadAll());
}

TEST_F(LogTest, BlockBoundaryHeaderPadding) {
  // Fill so that < 7 bytes remain in the block; the writer must pad
  // and move to the next block.
  const std::string just_under(kBlockSize - kHeaderSize - 3, 'x');
  Write(just_under);
  Write("next");
  const auto records = ReadAll();
  ASSERT_EQ(2u, records.size());
  EXPECT_EQ(just_under, records[0]);
  EXPECT_EQ("next", records[1]);
}

TEST_F(LogTest, ChecksumMismatchDropsRecord) {
  Write("payload-one");
  Write("payload-two");
  CorruptByte(kHeaderSize + 2);  // inside the first record's payload

  CountingReporter reporter;
  const auto records = ReadAll(&reporter);
  // First record dropped, second (same block, also dropped since the
  // whole block is skipped on checksum failure) — at minimum the
  // corruption was noticed and no garbage surfaced.
  EXPECT_GE(reporter.corruptions, 1);
  for (const auto& record : records) {
    EXPECT_TRUE(record == "payload-one" || record == "payload-two");
  }
}

TEST_F(LogTest, TruncatedTailIsCleanEof) {
  Write("complete");
  Write("this-record-will-be-torn-apart-by-a-crash");
  std::string contents;
  ASSERT_TRUE(ReadFileToString(env_.get(), "/log", &contents).ok());
  TruncateTo(contents.size() - 10);

  CountingReporter reporter;
  const auto records = ReadAll(&reporter);
  ASSERT_EQ(1u, records.size());
  EXPECT_EQ("complete", records[0]);
  // A torn tail is an expected crash artifact, not a corruption.
  EXPECT_EQ(0, reporter.corruptions);
}

TEST_F(LogTest, ResumeAppendPosition) {
  Write("first");
  uint64_t size = dest_->GetFileSize();
  // Simulate reopening the log for append.
  writer_ = std::make_unique<Writer>(dest_.get(), size);
  Write("second");
  const auto records = ReadAll();
  ASSERT_EQ(2u, records.size());
  EXPECT_EQ("first", records[0]);
  EXPECT_EQ("second", records[1]);
}

TEST_F(LogTest, PaddedRoundTripAcrossBucketConfigs) {
  const std::vector<std::vector<uint32_t>> configs = {
      {64}, {512}, {64, 256, 1024, 4096}};
  const size_t sizes[] = {0, 1, 59, 60, 100, 255, 1000, 4092, 5000, 100000};
  for (const auto& buckets : configs) {
    ResetPadded(buckets);
    std::vector<std::string> expected;
    int c = 0;
    for (size_t n : sizes) {
      expected.emplace_back(n, static_cast<char>('a' + (c++ % 26)));
      Write(expected.back());
    }
    CountingReporter reporter;
    EXPECT_EQ(expected, ReadAll(&reporter));
    EXPECT_EQ(0, reporter.corruptions);
  }
}

TEST_F(LogTest, PaddedPhysicalRecordSizesAreBucketed) {
  // The side-channel property itself: with padding enabled, the record
  // sizes visible to the storage tier come from the bucket set alone.
  const std::vector<uint32_t> buckets = {64, 256, 1024, 4096};
  ResetPadded(buckets);
  Random rnd(172);
  std::vector<std::string> expected;
  for (int i = 0; i < 400; i++) {
    const size_t n = rnd.Uniform(4000);
    expected.emplace_back(n, static_cast<char>('a' + i % 26));
    Write(expected.back());
  }
  EXPECT_EQ(expected, ReadAll());

  const std::set<uint32_t> allowed(buckets.begin(), buckets.end());
  std::set<uint32_t> seen;
  for (const PhysRecord& rec : PhysicalRecords()) {
    // Every record fits one bucket, so none fragments: the only type
    // on the wire is the padded-full type, at a bucketed length.
    EXPECT_EQ(kPadFullType, rec.type);
    EXPECT_TRUE(allowed.count(rec.length) > 0)
        << "on-wire record length " << rec.length << " not a bucket";
    seen.insert(rec.length);
  }
  EXPECT_LE(seen.size(), allowed.size());
}

TEST_F(LogTest, PaddedOversizeRecordRoundTrip) {
  // Larger than the largest bucket: the envelope rounds up to the next
  // bucket multiple and fragments across blocks like any big record.
  ResetPadded({64});
  const std::string big(100000, 'B');
  Write(big);
  Write("after");
  CountingReporter reporter;
  const auto records = ReadAll(&reporter);
  ASSERT_EQ(2u, records.size());
  EXPECT_EQ(big, records[0]);
  EXPECT_EQ("after", records[1]);
  EXPECT_EQ(0, reporter.corruptions);
}

TEST_F(LogTest, NoEmptyFirstFragmentAtBlockEdge) {
  // Leave exactly kHeaderSize bytes in the first block: the writer
  // must roll to a fresh block instead of emitting a zero-length
  // kFirstType fragment there.
  const std::string filler(kBlockSize - 2 * kHeaderSize, 'x');
  Write(filler);
  Write("tail");
  for (const PhysRecord& rec : PhysicalRecords()) {
    if (rec.type == kFirstType || rec.type == kMiddleType) {
      EXPECT_GT(rec.length, 0u)
          << "zero-length continuation fragment emitted at block edge";
    }
  }
  const auto records = ReadAll();
  ASSERT_EQ(2u, records.size());
  EXPECT_EQ(filler, records[0]);
  EXPECT_EQ("tail", records[1]);
}

TEST_F(LogTest, LegacyEmptyFirstFragmentStillReads) {
  // Logs written before the block-edge fix carry a zero-length
  // kFirstType fragment in the last 7 bytes of a block, with the
  // payload continuing in the next block. Hand-craft those bytes and
  // prove the reader still reassembles them.
  auto make_record = [](RecordType type, const std::string& payload) {
    char t = static_cast<char>(type);
    uint32_t crc =
        crc32c::Extend(crc32c::Value(&t, 1), payload.data(), payload.size());
    crc = crc32c::Mask(crc);
    std::string rec;
    PutFixed32(&rec, crc);
    rec.push_back(static_cast<char>(payload.size() & 0xff));
    rec.push_back(static_cast<char>(payload.size() >> 8));
    rec.push_back(t);
    rec.append(payload);
    return rec;
  };
  const std::string filler(kBlockSize - 2 * kHeaderSize, 'y');
  std::string contents = make_record(kFullType, filler);
  contents += make_record(kFirstType, "");  // legacy empty fragment
  ASSERT_EQ(static_cast<size_t>(kBlockSize), contents.size());
  contents += make_record(kLastType, "tail");
  ASSERT_TRUE(WriteStringToFile(env_.get(), contents, "/log", false).ok());

  CountingReporter reporter;
  const auto records = ReadAll(&reporter);
  ASSERT_EQ(2u, records.size());
  EXPECT_EQ(filler, records[0]);
  EXPECT_EQ("tail", records[1]);
  EXPECT_EQ(0, reporter.corruptions);
}

TEST_F(LogTest, FailedAppendDoesNotAdvanceOffsets) {
  // A failed Append must leave the writer's block accounting where it
  // was: the retried records land at the physical offset the writer
  // believes, headers stay block-aligned, and everything after the
  // fault recovers cleanly across block boundaries.
  env_->NewWritableFile("/log", &dest_);
  FlakyFile flaky(dest_.get());
  writer_ = std::make_unique<Writer>(&flaky);

  ASSERT_TRUE(writer_->AddRecord("one").ok());
  flaky.FailNextAppend();
  ASSERT_FALSE(writer_->AddRecord("lost-to-the-fault").ok());

  std::vector<std::string> expected = {"one"};
  Random rnd(9);
  for (int i = 0; i < 12; i++) {
    // Large enough that the survivors cross several block boundaries.
    expected.emplace_back(6000 + rnd.Uniform(4000),
                          static_cast<char>('a' + i));
    ASSERT_TRUE(writer_->AddRecord(expected.back()).ok());
  }
  CountingReporter reporter;
  EXPECT_EQ(expected, ReadAll(&reporter));
  EXPECT_EQ(0, reporter.corruptions);
}

TEST_F(LogTest, FailedAppendDoesNotAdvanceOffsetsPadded) {
  // Same fault with padding enabled: the pre-roll and trailer-fill
  // logic also depend on block_offset_ staying truthful.
  env_->NewWritableFile("/log", &dest_);
  FlakyFile flaky(dest_.get());
  writer_ =
      std::make_unique<Writer>(&flaky, 0, std::vector<uint32_t>{64, 1024},
                               nullptr);

  ASSERT_TRUE(writer_->AddRecord("one").ok());
  flaky.FailNextAppend();
  ASSERT_FALSE(writer_->AddRecord("lost-to-the-fault").ok());

  std::vector<std::string> expected = {"one"};
  for (int i = 0; i < 60; i++) {
    expected.emplace_back(900 + i, static_cast<char>('a' + i % 26));
    ASSERT_TRUE(writer_->AddRecord(expected.back()).ok());
  }
  CountingReporter reporter;
  EXPECT_EQ(expected, ReadAll(&reporter));
  EXPECT_EQ(0, reporter.corruptions);
}

}  // namespace
}  // namespace log
}  // namespace shield
