#include <functional>

#include "crypto/secure_random.h"
#include "kds/dek.h"
#include "kds/failover_kds.h"
#include "kds/faulty_kds.h"
#include "kds/local_kds.h"
#include "kds/secure_dek_cache.h"
#include "kds/sim_kds.h"
#include "shield/dek_manager.h"

#include "gtest/gtest.h"
#include "test_util.h"
#include "util/clock.h"

namespace shield {
namespace {

// --- DekId ------------------------------------------------------------

TEST(DekIdTest, HexRoundTrip) {
  const DekId id = DekId::Generate();
  const std::string hex = id.ToHex();
  EXPECT_EQ(32u, hex.size());
  DekId parsed;
  ASSERT_TRUE(DekId::FromHex(hex, &parsed));
  EXPECT_EQ(id, parsed);
}

TEST(DekIdTest, FromHexRejectsBadInput) {
  DekId id;
  EXPECT_FALSE(DekId::FromHex("short", &id));
  EXPECT_FALSE(DekId::FromHex(std::string(32, 'z'), &id));
}

TEST(DekIdTest, GenerateIsUnique) {
  EXPECT_NE(DekId::Generate(), DekId::Generate());
}

TEST(DekIdTest, SliceRoundTrip) {
  const DekId id = DekId::Generate();
  EXPECT_EQ(id, DekId::FromSlice(id.AsSlice()));
  EXPECT_FALSE(id.IsZero());
  EXPECT_TRUE(DekId().IsZero());
}

// --- LocalKds -----------------------------------------------------------

TEST(LocalKdsTest, CreateGetDelete) {
  LocalKds kds;
  Dek dek;
  ASSERT_TRUE(
      kds.CreateDek("s1", crypto::CipherKind::kAes128Ctr, &dek).ok());
  EXPECT_EQ(16u, dek.key.size());
  EXPECT_EQ(1u, kds.NumDeks());

  Dek fetched;
  ASSERT_TRUE(kds.GetDek("s2", dek.id, &fetched).ok());
  EXPECT_EQ(dek.key, fetched.key);
  EXPECT_EQ(dek.cipher, fetched.cipher);

  ASSERT_TRUE(kds.DeleteDek("s1", dek.id).ok());
  EXPECT_TRUE(kds.GetDek("s1", dek.id, &fetched).IsNotFound());
  EXPECT_TRUE(kds.DeleteDek("s1", dek.id).IsNotFound());
}

TEST(LocalKdsTest, UniqueKeysPerDek) {
  LocalKds kds;
  Dek a, b;
  ASSERT_TRUE(kds.CreateDek("s", crypto::CipherKind::kAes128Ctr, &a).ok());
  ASSERT_TRUE(kds.CreateDek("s", crypto::CipherKind::kAes128Ctr, &b).ok());
  EXPECT_NE(a.id, b.id);
  EXPECT_NE(a.key, b.key);
}

// --- SimKds --------------------------------------------------------------

TEST(SimKdsTest, LatencyIsApplied) {
  SimKdsOptions options;
  options.request_latency_us = 3000;
  SimKds kds(options);
  Dek dek;
  const uint64_t t0 = NowMicros();
  ASSERT_TRUE(kds.CreateDek("s", crypto::CipherKind::kAes128Ctr, &dek).ok());
  const uint64_t elapsed = NowMicros() - t0;
  EXPECT_GE(elapsed, 2500u);  // allow scheduler slop downward
  EXPECT_EQ(1u, kds.num_requests());
}

TEST(SimKdsTest, AuthorizationEnforced) {
  SimKdsOptions options;
  options.request_latency_us = 0;
  options.require_authorization = true;
  SimKds kds(options);

  Dek dek;
  EXPECT_TRUE(kds.CreateDek("rogue", crypto::CipherKind::kAes128Ctr, &dek)
                  .IsPermissionDenied());

  kds.AuthorizeServer("compute-1");
  ASSERT_TRUE(
      kds.CreateDek("compute-1", crypto::CipherKind::kAes128Ctr, &dek).ok());

  // Another authorized server can fetch by DEK-ID.
  kds.AuthorizeServer("worker-1");
  Dek fetched;
  ASSERT_TRUE(kds.GetDek("worker-1", dek.id, &fetched).ok());
  EXPECT_EQ(dek.key, fetched.key);

  // Unauthorized server cannot, even with the DEK-ID (the paper's
  // Section 5.4 safeguard).
  EXPECT_TRUE(kds.GetDek("attacker", dek.id, &fetched).IsPermissionDenied());
}

TEST(SimKdsTest, RevocationBlocksBreachedServer) {
  SimKdsOptions options;
  options.request_latency_us = 0;
  options.require_authorization = true;
  SimKds kds(options);
  kds.AuthorizeServer("w");
  Dek dek;
  ASSERT_TRUE(kds.CreateDek("w", crypto::CipherKind::kAes128Ctr, &dek).ok());

  kds.RevokeServer("w");
  Dek fetched;
  EXPECT_TRUE(kds.GetDek("w", dek.id, &fetched).IsPermissionDenied());
  EXPECT_TRUE(kds.CreateDek("w", crypto::CipherKind::kAes128Ctr, &dek)
                  .IsPermissionDenied());
}

TEST(SimKdsTest, OneTimeProvisioning) {
  SimKdsOptions options;
  options.request_latency_us = 0;
  options.one_time_provisioning = true;
  SimKds kds(options);

  Dek dek;
  ASSERT_TRUE(kds.CreateDek("a", crypto::CipherKind::kAes128Ctr, &dek).ok());

  // First fetch by another server succeeds; the second is denied — a
  // stolen DEK-ID alone cannot re-obtain the key.
  Dek fetched;
  ASSERT_TRUE(kds.GetDek("b", dek.id, &fetched).ok());
  EXPECT_TRUE(kds.GetDek("b", dek.id, &fetched).IsPermissionDenied());

  // The creator is also considered provisioned.
  EXPECT_TRUE(kds.GetDek("a", dek.id, &fetched).IsPermissionDenied());

  // A third server still gets its first (and only) fetch.
  ASSERT_TRUE(kds.GetDek("c", dek.id, &fetched).ok());
}

TEST(SimKdsTest, RuntimeLatencyAdjustment) {
  SimKdsOptions options;
  options.request_latency_us = 0;
  SimKds kds(options);
  kds.set_request_latency_us(2000);
  Dek dek;
  const uint64_t t0 = NowMicros();
  ASSERT_TRUE(kds.CreateDek("s", crypto::CipherKind::kAes128Ctr, &dek).ok());
  EXPECT_GE(NowMicros() - t0, 1500u);
}

// --- SecureDekCache ---------------------------------------------------------

class SecureDekCacheTest : public ::testing::Test {
 protected:
  SecureDekCacheTest() : env_(NewMemEnv()) {}

  Dek MakeDek() {
    Dek dek;
    dek.id = DekId::Generate();
    dek.cipher = crypto::CipherKind::kAes128Ctr;
    dek.key = crypto::SecureRandomString(16);
    return dek;
  }

  std::unique_ptr<Env> env_;
};

TEST_F(SecureDekCacheTest, PutGetErase) {
  std::unique_ptr<SecureDekCache> cache;
  ASSERT_TRUE(SecureDekCache::Open(env_.get(), "/cache", "pass", &cache).ok());

  const Dek dek = MakeDek();
  ASSERT_TRUE(cache->Put(dek).ok());
  Dek out;
  ASSERT_TRUE(cache->Get(dek.id, &out).ok());
  EXPECT_EQ(dek.key, out.key);
  EXPECT_EQ(dek.cipher, out.cipher);

  ASSERT_TRUE(cache->Erase(dek.id).ok());
  EXPECT_TRUE(cache->Get(dek.id, &out).IsNotFound());
  // Erasing again is idempotent.
  EXPECT_TRUE(cache->Erase(dek.id).ok());
}

TEST_F(SecureDekCacheTest, PersistsAcrossReopen) {
  const Dek dek = MakeDek();
  {
    std::unique_ptr<SecureDekCache> cache;
    ASSERT_TRUE(
        SecureDekCache::Open(env_.get(), "/cache", "pass", &cache).ok());
    ASSERT_TRUE(cache->Put(dek).ok());
  }
  std::unique_ptr<SecureDekCache> cache;
  ASSERT_TRUE(SecureDekCache::Open(env_.get(), "/cache", "pass", &cache).ok());
  EXPECT_EQ(1u, cache->NumDeks());
  Dek out;
  ASSERT_TRUE(cache->Get(dek.id, &out).ok());
  EXPECT_EQ(dek.key, out.key);
}

TEST_F(SecureDekCacheTest, WrongPasskeyRejected) {
  {
    std::unique_ptr<SecureDekCache> cache;
    ASSERT_TRUE(
        SecureDekCache::Open(env_.get(), "/cache", "correct", &cache).ok());
    ASSERT_TRUE(cache->Put(MakeDek()).ok());
  }
  std::unique_ptr<SecureDekCache> cache;
  Status s = SecureDekCache::Open(env_.get(), "/cache", "wrong", &cache);
  EXPECT_TRUE(s.IsPermissionDenied()) << s.ToString();
}

TEST_F(SecureDekCacheTest, TamperingDetected) {
  {
    std::unique_ptr<SecureDekCache> cache;
    ASSERT_TRUE(
        SecureDekCache::Open(env_.get(), "/cache", "pass", &cache).ok());
    ASSERT_TRUE(cache->Put(MakeDek()).ok());
  }
  // Flip one ciphertext byte.
  std::string contents;
  ASSERT_TRUE(ReadFileToString(env_.get(), "/cache", &contents).ok());
  contents[contents.size() / 2] ^= 0x1;
  ASSERT_TRUE(
      WriteStringToFile(env_.get(), contents, "/cache", false).ok());

  std::unique_ptr<SecureDekCache> cache;
  Status s = SecureDekCache::Open(env_.get(), "/cache", "pass", &cache);
  EXPECT_TRUE(s.IsPermissionDenied()) << s.ToString();
}

TEST_F(SecureDekCacheTest, KeysNotPlaintextOnDisk) {
  Dek dek = MakeDek();
  dek.key = "VERYSECRETKEY16B";
  std::unique_ptr<SecureDekCache> cache;
  ASSERT_TRUE(SecureDekCache::Open(env_.get(), "/cache", "pass", &cache).ok());
  ASSERT_TRUE(cache->Put(dek).ok());

  std::string contents;
  ASSERT_TRUE(ReadFileToString(env_.get(), "/cache", &contents).ok());
  EXPECT_EQ(std::string::npos, contents.find("VERYSECRETKEY16B"));
}

TEST_F(SecureDekCacheTest, RequiresPasskey) {
  std::unique_ptr<SecureDekCache> cache;
  EXPECT_TRUE(SecureDekCache::Open(env_.get(), "/cache", "", &cache)
                  .IsInvalidArgument());
}

TEST_F(SecureDekCacheTest, SharedBetweenInstances) {
  // Two cache objects over the same file (two LSM-KVS instances on one
  // server sharing the cache, per the paper): writes by one are
  // visible to a later-opened other.
  std::unique_ptr<SecureDekCache> first;
  ASSERT_TRUE(SecureDekCache::Open(env_.get(), "/cache", "pass", &first).ok());
  const Dek dek = MakeDek();
  ASSERT_TRUE(first->Put(dek).ok());

  std::unique_ptr<SecureDekCache> second;
  ASSERT_TRUE(
      SecureDekCache::Open(env_.get(), "/cache", "pass", &second).ok());
  Dek out;
  EXPECT_TRUE(second->Get(dek.id, &out).ok());
}

// --- DekManager ------------------------------------------------------------

TEST(DekManagerTest, ResolutionChain) {
  auto kds = std::make_shared<LocalKds>();
  auto env = NewMemEnv();
  std::unique_ptr<SecureDekCache> cache;
  ASSERT_TRUE(SecureDekCache::Open(env.get(), "/c", "pk", &cache).ok());

  // Each manager counts into its own Statistics.
  Statistics stats;
  DekManager manager(kds.get(), "s1", cache.get(), &stats);
  Dek dek;
  ASSERT_TRUE(manager.CreateDek(crypto::CipherKind::kAes128Ctr, &dek).ok());
  EXPECT_EQ(1u, stats.GetTickerCount(Tickers::kKdsRequests));

  // Memory hit: no extra KDS request.
  Dek out;
  ASSERT_TRUE(manager.ResolveDek(dek.id, &out).ok());
  EXPECT_EQ(1u, stats.GetTickerCount(Tickers::kKdsRequests));
  EXPECT_EQ(1u, stats.GetTickerCount(Tickers::kShieldDekCacheHit));

  // A fresh manager (simulating restart) hits the secure cache, not
  // the KDS.
  Statistics restarted_stats;
  DekManager restarted(kds.get(), "s1", cache.get(), &restarted_stats);
  ASSERT_TRUE(restarted.ResolveDek(dek.id, &out).ok());
  EXPECT_EQ(0u, restarted_stats.GetTickerCount(Tickers::kKdsRequests));
  EXPECT_EQ(dek.key, out.key);

  // Without the cache, resolution goes to the KDS.
  Statistics uncached_stats;
  DekManager uncached(kds.get(), "s2", nullptr, &uncached_stats);
  ASSERT_TRUE(uncached.ResolveDek(dek.id, &out).ok());
  EXPECT_EQ(1u, uncached_stats.GetTickerCount(Tickers::kKdsRequests));
}

TEST(DekManagerTest, ForgetDekRemovesEverywhere) {
  auto kds = std::make_shared<LocalKds>();
  auto env = NewMemEnv();
  std::unique_ptr<SecureDekCache> cache;
  ASSERT_TRUE(SecureDekCache::Open(env.get(), "/c", "pk", &cache).ok());

  Statistics stats;
  DekManager manager(kds.get(), "s1", cache.get(), &stats);
  Dek dek;
  ASSERT_TRUE(manager.CreateDek(crypto::CipherKind::kAes128Ctr, &dek).ok());
  ASSERT_TRUE(manager.ForgetDek(dek.id).ok());

  EXPECT_EQ(0u, kds->NumDeks());
  EXPECT_EQ(0u, cache->NumDeks());
  EXPECT_EQ(1u, stats.GetTickerCount(Tickers::kShieldDekCacheEvictions));
  Dek out;
  EXPECT_FALSE(manager.ResolveDek(dek.id, &out).ok());
}

TEST(DekManagerTest, ForgetUnknownDekIsOk) {
  auto kds = std::make_shared<LocalKds>();
  Statistics stats;
  DekManager manager(kds.get(), "s1", nullptr, &stats);
  EXPECT_TRUE(manager.ForgetDek(DekId::Generate()).ok());
  // Nothing was in memory, so nothing was evicted.
  EXPECT_EQ(0u, stats.GetTickerCount(Tickers::kShieldDekCacheEvictions));
}


// --- RewrapDek --------------------------------------------------------------

TEST(RewrapDekTest, LocalKdsIssuesNewIdWithSameKeyMaterial) {
  LocalKds kds;
  Dek dek;
  ASSERT_TRUE(
      kds.CreateDek("source", crypto::CipherKind::kAes128Ctr, &dek).ok());
  Dek rewrapped;
  ASSERT_TRUE(kds.RewrapDek("source", dek.id, "target", &rewrapped).ok());
  EXPECT_NE(dek.id, rewrapped.id);
  EXPECT_EQ(dek.key, rewrapped.key);
  EXPECT_EQ(dek.cipher, rewrapped.cipher);

  // Both ids resolve independently: deleting one does not affect the
  // other (a restored backup must survive the source id being purged).
  Dek out;
  ASSERT_TRUE(kds.DeleteDek("source", dek.id).ok());
  EXPECT_TRUE(kds.GetDek("target", rewrapped.id, &out).ok());
  EXPECT_EQ(dek.key, out.key);

  EXPECT_TRUE(
      kds.RewrapDek("source", DekId::Generate(), "target", &out).IsNotFound());
}

TEST(RewrapDekTest, SimKdsDeniesRevokedParticipants) {
  SimKdsOptions opts;
  opts.request_latency_us = 0;
  opts.require_authorization = true;
  SimKds kds(opts);
  kds.AuthorizeServer("source");
  kds.AuthorizeServer("target");

  Dek dek;
  ASSERT_TRUE(
      kds.CreateDek("source", crypto::CipherKind::kAes128Ctr, &dek).ok());

  Dek rewrapped;
  kds.RevokeServer("target");
  EXPECT_TRUE(kds.RewrapDek("source", dek.id, "target", &rewrapped)
                  .IsPermissionDenied());

  kds.AuthorizeServer("target");
  ASSERT_TRUE(kds.RewrapDek("source", dek.id, "target", &rewrapped).ok());

  // A revoked *source* cannot mint new wrappings either.
  kds.RevokeServer("source");
  Dek again;
  EXPECT_TRUE(kds.RewrapDek("source", dek.id, "target", &again)
                  .IsPermissionDenied());
  // But the target identity keeps working with its own wrapping.
  Dek out;
  EXPECT_TRUE(kds.GetDek("target", rewrapped.id, &out).ok());
  EXPECT_EQ(dek.key, out.key);
}

TEST(RewrapDekTest, OneTimeProvisioningLetsTargetFetchRewrappedId) {
  SimKdsOptions opts;
  opts.request_latency_us = 0;
  opts.one_time_provisioning = true;
  SimKds kds(opts);

  Dek dek;
  ASSERT_TRUE(
      kds.CreateDek("source", crypto::CipherKind::kAes128Ctr, &dek).ok());
  Dek rewrapped;
  ASSERT_TRUE(kds.RewrapDek("source", dek.id, "target", &rewrapped).ok());

  // Only the source is recorded as having consumed the new id, so the
  // target's first fetch must still succeed.
  Dek out;
  EXPECT_TRUE(kds.GetDek("target", rewrapped.id, &out).ok());
}

// --- FailoverKds ------------------------------------------------------------

// Scripts an endpoint: the next `n` requests answer `status` before
// the base KDS is consulted, and every request is counted.
class ScriptedKds : public Kds {
 public:
  explicit ScriptedKds(std::shared_ptr<Kds> base) : base_(std::move(base)) {}

  void FailNextWith(const Status& status, int n) {
    fail_status_ = status;
    fail_remaining_ = n;
  }
  int calls() const { return calls_; }

  Status CreateDek(const std::string& server_id, crypto::CipherKind kind,
                   Dek* out) override {
    return Intercept([&] { return base_->CreateDek(server_id, kind, out); });
  }
  Status GetDek(const std::string& server_id, const DekId& id,
                Dek* out) override {
    return Intercept([&] { return base_->GetDek(server_id, id, out); });
  }
  Status DeleteDek(const std::string& server_id, const DekId& id) override {
    return Intercept([&] { return base_->DeleteDek(server_id, id); });
  }
  Status RewrapDek(const std::string& server_id, const DekId& id,
                   const std::string& target_server_id, Dek* out) override {
    return Intercept([&] {
      return base_->RewrapDek(server_id, id, target_server_id, out);
    });
  }

 private:
  Status Intercept(const std::function<Status()>& op) {
    calls_++;
    if (fail_remaining_ > 0) {
      fail_remaining_--;
      return fail_status_;
    }
    return op();
  }

  std::shared_ptr<Kds> base_;
  Status fail_status_;
  int fail_remaining_ = 0;
  int calls_ = 0;
};

class FailoverKdsTest : public ::testing::Test {
 protected:
  FailoverKdsTest()
      : store_(std::make_shared<LocalKds>()),
        primary_(std::make_shared<ScriptedKds>(store_)),
        secondary_(std::make_shared<ScriptedKds>(store_)) {}

  // Both endpoints front the same store, as replicas of one KDS would.
  FailoverKds Make(FailoverKdsOptions options = {}) {
    return FailoverKds({primary_, secondary_}, options);
  }

  std::shared_ptr<LocalKds> store_;
  std::shared_ptr<ScriptedKds> primary_;
  std::shared_ptr<ScriptedKds> secondary_;
};

TEST_F(FailoverKdsTest, DefinitiveAnswersDoNotFailOver) {
  FailoverKds kds = Make();
  Dek dek;
  ASSERT_TRUE(
      store_->CreateDek("s", crypto::CipherKind::kAes128Ctr, &dek).ok());

  // NotFound is an answer, not an outage: the secondary (which could
  // answer OK) must not be consulted.
  Dek out;
  EXPECT_TRUE(kds.GetDek("s", DekId::Generate(), &out).IsNotFound());
  EXPECT_EQ(0, secondary_->calls());

  // PermissionDenied especially must not fail over, or a revoked
  // server could shop for a more permissive replica.
  primary_->FailNextWith(Status::PermissionDenied("revoked"), 1);
  EXPECT_TRUE(kds.GetDek("s", dek.id, &out).IsPermissionDenied());
  EXPECT_EQ(0, secondary_->calls());
  EXPECT_EQ(0u, kds.failovers());
}

TEST_F(FailoverKdsTest, TransientErrorFailsOverToSecondary) {
  FailoverKds kds = Make();
  Dek dek;
  ASSERT_TRUE(
      store_->CreateDek("s", crypto::CipherKind::kAes128Ctr, &dek).ok());

  primary_->FailNextWith(Status::TryAgain("kds down"), 1);
  Dek out;
  EXPECT_TRUE(kds.GetDek("s", dek.id, &out).ok());
  EXPECT_EQ(dek.key, out.key);
  EXPECT_EQ(1u, kds.failovers());
  EXPECT_EQ(1, secondary_->calls());
  // One failure is below the threshold: the breaker stays closed.
  EXPECT_EQ(FailoverKds::BreakerState::kClosed, kds.endpoint_state(0));
}

TEST_F(FailoverKdsTest, BreakerOpensAfterThresholdAndSkipsEndpoint) {
  FailoverKdsOptions options;
  options.failure_threshold = 3;
  options.open_micros = 60ull * 1000 * 1000;  // no half-open this test
  FailoverKds kds = Make(options);
  Dek dek;
  ASSERT_TRUE(
      store_->CreateDek("s", crypto::CipherKind::kAes128Ctr, &dek).ok());

  primary_->FailNextWith(Status::TryAgain("kds down"), 100);
  Dek out;
  for (int i = 0; i < 3; i++) {
    EXPECT_TRUE(kds.GetDek("s", dek.id, &out).ok());  // secondary serves
  }
  EXPECT_EQ(FailoverKds::BreakerState::kOpen, kds.endpoint_state(0));
  EXPECT_EQ(1u, kds.breaker_opens());
  EXPECT_EQ(3, primary_->calls());

  // While open, the primary is not even consulted.
  EXPECT_TRUE(kds.GetDek("s", dek.id, &out).ok());
  EXPECT_EQ(3, primary_->calls());
  EXPECT_GE(kds.breaker_rejections(), 1u);
}

TEST_F(FailoverKdsTest, HalfOpenProbeClosesBreakerOnRecovery) {
  FailoverKdsOptions options;
  options.failure_threshold = 3;
  options.open_micros = 0;  // cooldown elapses immediately
  FailoverKds kds = Make(options);
  Dek dek;
  ASSERT_TRUE(
      store_->CreateDek("s", crypto::CipherKind::kAes128Ctr, &dek).ok());

  primary_->FailNextWith(Status::TryAgain("kds down"), 3);
  Dek out;
  for (int i = 0; i < 3; i++) {
    EXPECT_TRUE(kds.GetDek("s", dek.id, &out).ok());
  }
  EXPECT_EQ(FailoverKds::BreakerState::kOpen, kds.endpoint_state(0));

  // Cooldown over: the next request probes the (now healthy) primary
  // and closes the breaker.
  EXPECT_TRUE(kds.GetDek("s", dek.id, &out).ok());
  EXPECT_EQ(4, primary_->calls());
  EXPECT_EQ(FailoverKds::BreakerState::kClosed, kds.endpoint_state(0));
}

TEST_F(FailoverKdsTest, AllEndpointsDownReturnsTransientError) {
  FailoverKds kds = Make();
  primary_->FailNextWith(Status::TryAgain("down"), 1);
  secondary_->FailNextWith(Status::Busy("down"), 1);
  Dek out;
  Status s = kds.GetDek("s", DekId::Generate(), &out);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsTransient()) << s.ToString();
}

// --- Torn secure cache falls through to the KDS -----------------------------

TEST_F(SecureDekCacheTest, TornCacheFileQuarantinedAndFallsThroughToKds) {
  auto kds = std::make_shared<LocalKds>();
  Dek dek;
  {
    std::unique_ptr<SecureDekCache> cache;
    ASSERT_TRUE(SecureDekCache::Open(env_.get(), "/cache", "pass", &cache).ok());
    DekManager manager(kds.get(), "s1", cache.get());
    ASSERT_TRUE(manager.CreateDek(crypto::CipherKind::kAes128Ctr, &dek).ok());
    ASSERT_EQ(1u, cache->NumDeks());
  }

  // Tear the cache file in half (crash mid-write on a filesystem
  // without atomic rename, bad sector, ...).
  std::string contents;
  ASSERT_TRUE(ReadFileToString(env_.get(), "/cache", &contents).ok());
  contents.resize(contents.size() / 2);
  ASSERT_TRUE(
      WriteStringToFile(env_.get(), contents, "/cache", /*sync=*/true).ok());

  // Reopen: recovered, quarantined, empty — NOT a failed open.
  std::unique_ptr<SecureDekCache> cache;
  ASSERT_TRUE(SecureDekCache::Open(env_.get(), "/cache", "pass", &cache).ok());
  EXPECT_TRUE(cache->recovered_from_corruption());
  EXPECT_EQ(0u, cache->NumDeks());
  EXPECT_TRUE(env_->FileExists("/cache.corrupt"));
  Dek out;
  EXPECT_TRUE(cache->Get(dek.id, &out).IsNotFound());

  // Resolution falls through to the KDS and re-populates the cache.
  Statistics stats;
  DekManager manager(kds.get(), "s1", cache.get(), &stats);
  ASSERT_TRUE(manager.ResolveDek(dek.id, &out).ok());
  EXPECT_EQ(dek.key, out.key);
  EXPECT_EQ(1u, stats.GetTickerCount(Tickers::kShieldDekCacheMiss));
  EXPECT_EQ(1u, cache->NumDeks());
}

// --- Persistent pending-delete queue ----------------------------------------

TEST(DekManagerTest, FailedKdsDeleteIsQueuedPersistedAndDrainedLater) {
  auto env = NewMemEnv();
  auto local = std::make_shared<LocalKds>();
  auto faulty = std::make_shared<FaultyKds>(local, FaultyKdsOptions());

  Dek dek;
  {
    DekManager manager(faulty.get(), "s1", nullptr);
    ASSERT_TRUE(manager.ConfigurePendingDeletes(env.get(), "/pending").ok());
    ASSERT_TRUE(manager.CreateDek(crypto::CipherKind::kAes128Ctr, &dek).ok());

    // Every request fails while the KDS is down: the delete must be
    // deferred (OK, queued, persisted), never lost.
    faulty->FailNextRequests(1000);
    ASSERT_TRUE(manager.ForgetDek(dek.id).ok());
    EXPECT_EQ(1u, manager.pending_deletes());
    EXPECT_EQ(1u, local->NumDeks());  // the key still exists in the KDS
  }

  // A restarted manager reloads the queue from disk and drains it once
  // the KDS is reachable again.
  faulty->FailNextRequests(0);
  DekManager restarted(faulty.get(), "s1", nullptr);
  ASSERT_TRUE(restarted.ConfigurePendingDeletes(env.get(), "/pending").ok());
  EXPECT_EQ(1u, restarted.pending_deletes());
  ASSERT_TRUE(restarted.TryDrainPendingDeletes().ok());
  EXPECT_EQ(0u, restarted.pending_deletes());
  EXPECT_EQ(0u, local->NumDeks());

  // The drain is durable too: yet another restart finds nothing queued.
  DekManager again(faulty.get(), "s1", nullptr);
  ASSERT_TRUE(again.ConfigurePendingDeletes(env.get(), "/pending").ok());
  EXPECT_EQ(0u, again.pending_deletes());
}

}  // namespace
}  // namespace shield
