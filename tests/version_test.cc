#include "lsm/version_edit.h"

#include "env/fault_injection_env.h"
#include "gtest/gtest.h"
#include "lsm/file_lease.h"
#include "lsm/file_names.h"
#include "util/coding.h"

namespace shield {
namespace {

void CheckRoundTrip(const VersionEdit& edit) {
  std::string encoded;
  edit.EncodeTo(&encoded);
  VersionEdit parsed;
  ASSERT_TRUE(parsed.DecodeFrom(encoded).ok());
  std::string encoded2;
  parsed.EncodeTo(&encoded2);
  EXPECT_EQ(encoded, encoded2);
}

TEST(VersionEditTest, EmptyEdit) {
  VersionEdit edit;
  CheckRoundTrip(edit);
}

TEST(VersionEditTest, FullEdit) {
  VersionEdit edit;
  edit.SetComparatorName("shield.BytewiseComparator");
  edit.SetLogNumber(7);
  edit.SetNextFile(42);
  edit.SetLastSequence(123456789);
  edit.AddFile(1, 10, 2048, InternalKey("aaa", 5, kTypeValue),
               InternalKey("zzz", 1, kTypeValue), 5, 311);
  edit.AddFile(2, 11, 4096, InternalKey("bbb", 9, kTypeValue),
               InternalKey("ccc", 3, kTypeDeletion), 9, 0);
  edit.RemoveFile(0, 8);
  edit.RemoveFile(3, 9);
  CheckRoundTrip(edit);
}

TEST(VersionEditTest, TailSizeRoundTrips) {
  VersionEdit edit;
  edit.AddFile(3, 17, 70000, InternalKey("k1", 4, kTypeValue),
               InternalKey("k9", 2, kTypeValue), 4, 4242);
  std::string encoded;
  edit.EncodeTo(&encoded);
  VersionEdit parsed;
  ASSERT_TRUE(parsed.DecodeFrom(encoded).ok());
  EXPECT_NE(std::string::npos,
            parsed.DebugString().find("AddFile: 3 17 70000 tail 4242"))
      << parsed.DebugString();

  // The tail size is part of the entry: an edit cut before it is
  // corrupt, not an entry with an unknown tail.
  ASSERT_GT(encoded.size(), 2u);
  encoded.resize(encoded.size() - 2);  // 4242 is a two-byte varint
  EXPECT_TRUE(parsed.DecodeFrom(encoded).IsCorruption());
}

TEST(VersionEditTest, DecodesLegacyNewFileWithUnknownTail) {
  // A new-file entry as builds before the tail size wrote it: tag 7,
  // level, number, size, smallest, largest, largest_seq.
  std::string legacy;
  PutVarint32(&legacy, 7);
  PutVarint32(&legacy, 2);
  PutVarint64(&legacy, 21);
  PutVarint64(&legacy, 9000);
  PutLengthPrefixedSlice(&legacy, InternalKey("a", 5, kTypeValue).Encode());
  PutLengthPrefixedSlice(&legacy, InternalKey("m", 3, kTypeValue).Encode());
  PutVarint64(&legacy, 5);
  VersionEdit parsed;
  ASSERT_TRUE(parsed.DecodeFrom(legacy).ok());
  EXPECT_NE(std::string::npos,
            parsed.DebugString().find("AddFile: 2 21 9000 tail 0"))
      << parsed.DebugString();

  // Re-encoded, it carries the tail (still 0) under the new tag and
  // reads back the same.
  std::string reencoded;
  parsed.EncodeTo(&reencoded);
  EXPECT_NE(legacy, reencoded);
  CheckRoundTrip(parsed);
}

TEST(VersionEditTest, DecodeRejectsGarbage) {
  VersionEdit edit;
  EXPECT_FALSE(edit.DecodeFrom(Slice("\xff\xff\xff garbage")).ok());
}

TEST(VersionEditTest, DebugStringMentionsFields) {
  VersionEdit edit;
  edit.SetLogNumber(99);
  edit.AddFile(1, 10, 2048, InternalKey("a", 1, kTypeValue),
               InternalKey("b", 1, kTypeValue), 1, 0);
  const std::string debug = edit.DebugString();
  EXPECT_NE(std::string::npos, debug.find("99"));
  EXPECT_NE(std::string::npos, debug.find("AddFile"));
}

// --- File names --------------------------------------------------------------

TEST(FileNamesTest, Construction) {
  EXPECT_EQ("/db/000007.log", LogFileName("/db", 7));
  EXPECT_EQ("/db/000042.sst", TableFileName("/db", 42));
  EXPECT_EQ("/db/MANIFEST-000003", DescriptorFileName("/db", 3));
  EXPECT_EQ("/db/CURRENT", CurrentFileName("/db"));
  EXPECT_EQ("/db/DEK_CACHE", DekCacheFileName("/db"));
  EXPECT_EQ("/db/LEASE-00000000deadbeef", LeaseFileName("/db", 0xdeadbeef));
}

TEST(FileNamesTest, ParseRoundTrip) {
  uint64_t number;
  DbFileType type;

  ASSERT_TRUE(ParseFileName("000007.log", &number, &type));
  EXPECT_EQ(7u, number);
  EXPECT_EQ(DbFileType::kLogFile, type);

  ASSERT_TRUE(ParseFileName("000042.sst", &number, &type));
  EXPECT_EQ(42u, number);
  EXPECT_EQ(DbFileType::kTableFile, type);

  ASSERT_TRUE(ParseFileName("MANIFEST-000003", &number, &type));
  EXPECT_EQ(3u, number);
  EXPECT_EQ(DbFileType::kDescriptorFile, type);

  ASSERT_TRUE(ParseFileName("CURRENT", &number, &type));
  EXPECT_EQ(DbFileType::kCurrentFile, type);

  ASSERT_TRUE(ParseFileName("DEK_CACHE", &number, &type));
  EXPECT_EQ(DbFileType::kDekCacheFile, type);

  ASSERT_TRUE(ParseFileName("000009.dbtmp", &number, &type));
  EXPECT_EQ(DbFileType::kTempFile, type);

  ASSERT_TRUE(ParseFileName("LEASE-0123456789abcdef", &number, &type));
  EXPECT_EQ(0x0123456789abcdefull, number);
  EXPECT_EQ(DbFileType::kLeaseFile, type);

  ASSERT_TRUE(ParseFileName("LEASE-0123456789abcdef.tmp", &number, &type));
  EXPECT_EQ(0x0123456789abcdefull, number);
  EXPECT_EQ(DbFileType::kLeaseTempFile, type);
}

TEST(FileNamesTest, ParseRejectsForeignNames) {
  uint64_t number;
  DbFileType type;
  EXPECT_FALSE(ParseFileName("", &number, &type));
  EXPECT_FALSE(ParseFileName("foo", &number, &type));
  EXPECT_FALSE(ParseFileName("foo.log", &number, &type));
  EXPECT_FALSE(ParseFileName("100.unknown", &number, &type));
  EXPECT_FALSE(ParseFileName("MANIFEST-", &number, &type));
  EXPECT_FALSE(ParseFileName("MANIFEST-xyz", &number, &type));
  EXPECT_FALSE(ParseFileName("LEASE-0123", &number, &type));
  EXPECT_FALSE(ParseFileName("LEASE-0123456789abcdef.tmp2", &number, &type));
  EXPECT_FALSE(ParseFileName("LEASE-0x23456789abcdef", &number, &type));
}

TEST(FileNamesTest, SetCurrentFile) {
  auto env = NewMemEnv();
  env->CreateDirIfMissing("/db");
  ASSERT_TRUE(SetCurrentFile(env.get(), "/db", 5).ok());
  std::string contents;
  ASSERT_TRUE(ReadFileToString(env.get(), "/db/CURRENT", &contents).ok());
  EXPECT_EQ("MANIFEST-000005\n", contents);
}

TEST(FileLeaseTest, EncodeDecodeRoundTrip) {
  FileLease lease;
  lease.pinned = {7, 1234};
  lease.written_micros = 99;
  std::string encoded = EncodeFileLease(lease);
  FileLease decoded;
  ASSERT_TRUE(DecodeFileLease(encoded, &decoded).ok());
  EXPECT_EQ(7u, decoded.pinned.manifest_number);
  EXPECT_EQ(1234u, decoded.pinned.offset);
  EXPECT_EQ(99u, decoded.written_micros);

  encoded[12] ^= 1;
  EXPECT_TRUE(DecodeFileLease(encoded, &decoded).IsCorruption());
  EXPECT_TRUE(DecodeFileLease("short", &decoded).IsCorruption());
}

TEST(FileLeaseTest, ManifestPositionsOrderByManifestThenOffset) {
  EXPECT_TRUE((ManifestPosition{1, 900} < ManifestPosition{2, 0}));
  EXPECT_TRUE((ManifestPosition{2, 10} < ManifestPosition{2, 11}));
  EXPECT_FALSE((ManifestPosition{2, 11} < ManifestPosition{2, 11}));
  EXPECT_TRUE((ManifestPosition{} < ManifestPosition{0, 1}));
}

TEST(FileLeaseTest, OldestLeasedPositionRules) {
  auto env = NewMemEnv();
  env->CreateDirIfMissing("/db");
  const uint64_t now = kFileLeaseTtlMicros * 3;
  FileLease recent;
  recent.pinned = {5, 100};
  recent.written_micros = now - 1;
  ASSERT_TRUE(WriteFileLease(env.get(), "/db", 1, recent).ok());
  FileLease older;
  older.pinned = {4, 700};
  older.written_micros = now - kFileLeaseTtlMicros / 2;
  ASSERT_TRUE(WriteFileLease(env.get(), "/db", 2, older).ok());
  FileLease expired;
  expired.pinned = {1, 0};
  expired.written_micros = now - kFileLeaseTtlMicros - 1;
  ASSERT_TRUE(WriteFileLease(env.get(), "/db", 3, expired).ok());
  const std::string name1 = LeaseFileName("", 1).substr(1);
  const std::string name2 = LeaseFileName("", 2).substr(1);
  const std::string name3 = LeaseFileName("", 3).substr(1);
  const std::string gone = LeaseFileName("", 4).substr(1);

  // The oldest live lease wins; the expired one is removed; a lease
  // that no longer exists pins nothing.
  ManifestPosition oldest;
  ASSERT_TRUE(OldestLeasedPosition(env.get(), "/db",
                                   {name1, name2, name3, gone}, now,
                                   &oldest));
  EXPECT_EQ(4u, oldest.manifest_number);
  EXPECT_EQ(700u, oldest.offset);
  EXPECT_FALSE(env->FileExists("/db/" + name3));
  EXPECT_FALSE(
      OldestLeasedPosition(env.get(), "/db", {gone}, now, &oldest));

  // A lease that cannot be decoded pins everything.
  ASSERT_TRUE(
      WriteStringToFile(env.get(), "garbage", "/db/" + name2, false).ok());
  ASSERT_TRUE(
      OldestLeasedPosition(env.get(), "/db", {name1, name2}, now, &oldest));
  EXPECT_EQ(0u, oldest.manifest_number);
  EXPECT_EQ(0u, oldest.offset);

  // So does one whose read fails: an I/O error never releases a file.
  FaultInjectionOptions fopts;
  fopts.read_error_probability = 1.0;
  FaultInjectionEnv faulty(env.get(), fopts);
  faulty.SetFaultsEnabled(true);
  oldest = ManifestPosition{9, 9};
  ASSERT_TRUE(OldestLeasedPosition(&faulty, "/db", {name1}, now, &oldest));
  EXPECT_EQ(0u, oldest.manifest_number);
  EXPECT_EQ(0u, oldest.offset);
}

}  // namespace
}  // namespace shield
