// Contention profiler (src/stm/profiler.*): label interning, the sample
// path (sampling, aggregation, drop accounting), the JSON schema round
// trip, cross-process merge, the derived hotspot/pair views, and — the
// acceptance piece — deterministic conflict attribution through every
// backend's real engine conflict sites, driven by the same manual
// two-context protocol scripts test_stm_backend.cpp uses (no threads, no
// scheduler dependence: each conflict is staged by hand and must attribute
// to the exact stripe that was fought over).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/stm/stm.hpp"
#include "src/tds/btree.hpp"
#include "src/tds/skiplist.hpp"

namespace rubic::stm {
namespace {

using profiler::ContentionSnapshot;
using profiler::SampleRow;

RuntimeConfig with_backend(BackendKind kind) {
  RuntimeConfig cfg;
  cfg.backend = kind;
  return cfg;
}

// --- labels ---

TEST(ProfilerLabels, InternIsStableAndRoundTrips) {
  const std::uint16_t a = profiler::intern_label("proftest:alpha");
  const std::uint16_t b = profiler::intern_label("proftest:beta");
  EXPECT_NE(a, profiler::kUnlabeled);
  EXPECT_NE(b, profiler::kUnlabeled);
  EXPECT_NE(a, b);
  EXPECT_EQ(profiler::intern_label("proftest:alpha"), a);
  EXPECT_EQ(profiler::label_name(a), "proftest:alpha");
  EXPECT_EQ(profiler::label_name(b), "proftest:beta");
  EXPECT_EQ(profiler::label_name(profiler::kUnlabeled), "");
  EXPECT_EQ(profiler::label_name(0xfffe), "") << "unknown ids render empty";
}

TEST(ProfilerLabels, ScopedLabelNestsAndRestores) {
  const std::uint16_t outer = profiler::intern_label("proftest:outer");
  const std::uint16_t inner = profiler::intern_label("proftest:inner");
  EXPECT_EQ(profiler::current_label(), profiler::kUnlabeled);
  {
    profiler::ScopedTxnLabel a(outer);
    EXPECT_EQ(profiler::current_label(), outer);
    {
      profiler::ScopedTxnLabel b(inner);
      EXPECT_EQ(profiler::current_label(), inner);
    }
    EXPECT_EQ(profiler::current_label(), outer);
  }
  EXPECT_EQ(profiler::current_label(), profiler::kUnlabeled);
}

// --- sample path ---

TEST(ProfilerSamples, DisarmedRecordIsANoOp) {
  profiler::arm();
  profiler::record(7, BackendKind::kOrecSwiss, AbortCause::kWriteConflict,
                   profiler::kUnlabeled, profiler::kUnlabeled);
  profiler::disarm();
  for (int i = 0; i < 5; ++i) {
    profiler::record(7, BackendKind::kOrecSwiss, AbortCause::kWriteConflict,
                     profiler::kUnlabeled, profiler::kUnlabeled);
  }
  const ContentionSnapshot snap = profiler::snapshot();
  EXPECT_EQ(snap.sampled, 1u) << "records after disarm must not land";
  ASSERT_EQ(snap.rows.size(), 1u);
  EXPECT_EQ(snap.rows[0].count, 1u);
}

TEST(ProfilerSamples, ArmStartsAFreshWindow) {
  profiler::Armed armed;
  profiler::record(1, BackendKind::kOrecSwiss, AbortCause::kReadConflict,
                   profiler::kUnlabeled, profiler::kUnlabeled);
  EXPECT_EQ(profiler::snapshot().sampled, 1u);
  profiler::arm();  // discards the previous window
  EXPECT_EQ(profiler::snapshot().sampled, 0u);
  EXPECT_TRUE(profiler::snapshot().rows.empty());
}

TEST(ProfilerSamples, AggregatesByTupleAndSortsByCount) {
  profiler::Armed armed;
  const std::uint16_t v = profiler::intern_label("proftest:victim");
  for (int i = 0; i < 5; ++i) {
    profiler::record(11, BackendKind::kTl2, AbortCause::kWriteConflict, v,
                     profiler::kUnlabeled);
  }
  profiler::record(22, BackendKind::kTl2, AbortCause::kValidationFailed, v,
                   profiler::kUnlabeled);
  const ContentionSnapshot snap = profiler::snapshot();
  EXPECT_EQ(snap.sampled, 6u);
  EXPECT_EQ(snap.dropped, 0u);
  ASSERT_EQ(snap.rows.size(), 2u);
  EXPECT_EQ(snap.rows[0].stripe, 11u) << "hottest row first";
  EXPECT_EQ(snap.rows[0].count, 5u);
  EXPECT_EQ(snap.rows[0].backend, "tl2");
  EXPECT_EQ(snap.rows[0].cause, "write_conflict");
  EXPECT_EQ(snap.rows[0].victim, "proftest:victim");
  EXPECT_EQ(snap.rows[1].stripe, 22u);
  EXPECT_EQ(snap.rows[1].cause, "validation_failed");
}

TEST(ProfilerSamples, SampleEveryRecordsEveryNth) {
  profiler::Armed armed(profiler::ProfilerConfig{4});
  for (int i = 0; i < 16; ++i) {
    profiler::record(3, BackendKind::kNorec, AbortCause::kValidationFailed,
                     profiler::kUnlabeled, profiler::kUnlabeled);
  }
  const ContentionSnapshot snap = profiler::snapshot();
  EXPECT_EQ(snap.sample_every, 4u);
  EXPECT_EQ(snap.sampled, 4u) << "every 4th abort is recorded";
}

TEST(ProfilerSamples, FullProbeWindowBumpsDroppedNotEvicts) {
  profiler::Armed armed;
  // Far more distinct tuples than the table holds: the overflow must be
  // counted, never silently lost, and never evict an existing bucket.
  constexpr std::uint64_t kDistinct = 1 << 16;
  for (std::uint64_t stripe = 0; stripe < kDistinct; ++stripe) {
    profiler::record(stripe, BackendKind::kOrecSwiss,
                     AbortCause::kWriteConflict, profiler::kUnlabeled,
                     profiler::kUnlabeled);
  }
  const ContentionSnapshot snap = profiler::snapshot();
  EXPECT_GT(snap.dropped, 0u);
  EXPECT_EQ(snap.sampled + snap.dropped, kDistinct);
  std::uint64_t total = 0;
  for (const SampleRow& r : snap.rows) total += r.count;
  EXPECT_EQ(total, snap.sampled);
}

// --- JSON round trip / merge / derived views ---

ContentionSnapshot sample_snapshot() {
  ContentionSnapshot snap;
  snap.ts_ns = 12345;
  snap.sample_every = 2;
  snap.sampled = 9;
  snap.dropped = 1;
  snap.rows = {
      {17, "orec_swiss", "write_conflict", "kv:transfer", "kv:scan", 5},
      {17, "orec_swiss", "read_conflict", "kv:transfer", "", 3},
      {profiler::kNoStripe, "orec_swiss", "user_retry", "", "", 1},
  };
  return snap;
}

TEST(ProfilerJson, RoundTripsHeaderAndRows) {
  const ContentionSnapshot snap = sample_snapshot();
  const std::string doc = profiler::to_json(snap);
  EXPECT_NE(doc.find("rubic-contention/v1"), std::string::npos);
  EXPECT_NE(doc.find("\"stripe\": null"), std::string::npos)
      << "kNoStripe renders as null";
  ContentionSnapshot parsed;
  std::string error;
  ASSERT_TRUE(profiler::parse_json(doc, &parsed, &error)) << error;
  EXPECT_EQ(parsed.ts_ns, snap.ts_ns);
  EXPECT_EQ(parsed.sample_every, snap.sample_every);
  EXPECT_EQ(parsed.sampled, snap.sampled);
  EXPECT_EQ(parsed.dropped, snap.dropped);
  EXPECT_EQ(parsed.rows, snap.rows);
}

TEST(ProfilerJson, RejectsSchemaMismatchAndGarbage) {
  ContentionSnapshot out;
  std::string error;
  EXPECT_FALSE(profiler::parse_json("not json", &out, &error));
  EXPECT_FALSE(error.empty());
  std::string doc = profiler::to_json(sample_snapshot());
  const std::size_t at = doc.find("rubic-contention/v1");
  ASSERT_NE(at, std::string::npos);
  doc.replace(at, 19, "rubic-contention/v9");
  EXPECT_FALSE(profiler::parse_json(doc, &out, &error));
  EXPECT_NE(error.find("schema"), std::string::npos);
}

TEST(ProfilerMerge, SumsRowsByKeyAndHeaders) {
  ContentionSnapshot a = sample_snapshot();
  ContentionSnapshot b;
  b.ts_ns = 99999;
  b.sample_every = 1;
  b.sampled = 4;
  b.dropped = 0;
  b.rows = {
      {17, "orec_swiss", "write_conflict", "kv:transfer", "kv:scan", 2},
      {40, "tl2", "validation_failed", "", "", 2},
  };
  const std::vector<ContentionSnapshot> parts = {a, b};
  const ContentionSnapshot merged = profiler::merge(parts);
  EXPECT_EQ(merged.ts_ns, 99999u);
  EXPECT_EQ(merged.sample_every, 2u);
  EXPECT_EQ(merged.sampled, 13u);
  EXPECT_EQ(merged.dropped, 1u);
  ASSERT_EQ(merged.rows.size(), 4u);
  EXPECT_EQ(merged.rows[0].stripe, 17u);
  EXPECT_EQ(merged.rows[0].cause, "write_conflict");
  EXPECT_EQ(merged.rows[0].count, 7u) << "matching rows sum";
}

TEST(ProfilerViews, HotspotsGroupByStripeAndSkipSentinel) {
  const std::vector<profiler::Hotspot> hot =
      profiler::hotspots(sample_snapshot());
  ASSERT_EQ(hot.size(), 1u) << "the sentinel row must be excluded";
  EXPECT_EQ(hot[0].stripe, 17u);
  EXPECT_EQ(hot[0].backend, "orec_swiss");
  EXPECT_EQ(hot[0].total, 8u);
  ASSERT_EQ(hot[0].causes.size(), 2u);
  EXPECT_EQ(hot[0].causes[0].first, "write_conflict");
  EXPECT_EQ(hot[0].causes[0].second, 5u);
  ASSERT_EQ(hot[0].labels.size(), 1u);
  EXPECT_EQ(hot[0].labels[0].first, "kv:transfer");
}

TEST(ProfilerViews, ConflictPairsAggregateVictimOwnerEdges) {
  const std::vector<profiler::ConflictEdge> pairs =
      profiler::conflict_pairs(sample_snapshot());
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_EQ(pairs[0].victim, "kv:transfer");
  EXPECT_EQ(pairs[0].owner, "kv:scan");
  EXPECT_EQ(pairs[0].count, 5u);
}

// --- engine attribution (the acceptance tests) ---
//
// Each test stages a skewed conflict pattern by hand — kHot conflicts on
// one variable, one on a cold variable — through the backend's real
// conflict sites, then asserts the top hotspot is exactly the hot
// variable's stripe with the right backend/cause/label attribution.

constexpr int kHot = 8;

TEST(ProfilerAttribution, OrecSwissWriteConflictNamesTheHotStripe) {
  Runtime rt(with_backend(BackendKind::kOrecSwiss));
  TxnDesc& holder = rt.register_thread();
  TxnDesc& victim = rt.register_thread();
  TVar<std::int64_t> hot(0), cold(0);
  profiler::Armed armed;
  const std::uint16_t owner_id = profiler::intern_label("prof:owner");
  const std::uint16_t victim_id = profiler::intern_label("prof:victim");
  const auto clash = [&](TVar<std::int64_t>& var) {
    // Holder write-locks the stripe at encounter time; the victim's write
    // hits the held lock and (timid CM) aborts on the spot.
    profiler::set_current_label(owner_id);
    holder.begin(true);
    Txn htx(holder);
    var.write(htx, 1);
    profiler::set_current_label(victim_id);
    victim.begin(true);
    Txn vtx(victim);
    EXPECT_THROW(var.write(vtx, 2), detail::AbortTx);
    victim.rollback(AbortCause::kWriteConflict);
    holder.commit();
    profiler::set_current_label(profiler::kUnlabeled);
  };
  for (int i = 0; i < kHot; ++i) clash(hot);
  clash(cold);

  const ContentionSnapshot snap = profiler::snapshot();
  EXPECT_EQ(snap.sampled, static_cast<std::uint64_t>(kHot + 1));
  const auto top = profiler::hotspots(snap);
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0].stripe, rt.orecs().index_of(rt.orecs().for_address(&hot)));
  EXPECT_EQ(top[0].backend, "orec_swiss");
  EXPECT_EQ(top[0].total, static_cast<std::uint64_t>(kHot));
  EXPECT_EQ(top[0].causes[0].first, "write_conflict");
  EXPECT_EQ(top[0].labels[0].first, "prof:victim");
  const auto pairs = profiler::conflict_pairs(snap);
  ASSERT_FALSE(pairs.empty());
  EXPECT_EQ(pairs[0].victim, "prof:victim");
  EXPECT_EQ(pairs[0].owner, "prof:owner") << "owner label read off the lock";
}

TEST(ProfilerAttribution, Tl2CommitAbortNamesTheHotStripe) {
  Runtime rt(with_backend(BackendKind::kTl2));
  TxnDesc& committer = rt.register_thread();
  TxnDesc& owner = rt.register_thread();
  TVar<std::int64_t> hot(0), cold(0);
  profiler::Armed armed;
  const std::uint16_t owner_id = profiler::intern_label("prof:tl2owner");
  // Stamp the owner descriptor's label (begin() while armed records it).
  profiler::set_current_label(owner_id);
  owner.begin(true);
  owner.commit();
  profiler::set_current_label(profiler::kUnlabeled);
  const auto clash = [&](TVar<std::int64_t>& var) {
    // TL2 locks at commit time only: park a foreign lock on the stripe by
    // hand (a stalled committer) and let the commit-time acquisition fail.
    Orec& orec = rt.orecs().for_address(&var);
    const LockWord pre = orec.load();
    ASSERT_TRUE(orec.try_lock(pre, &owner));
    committer.begin(true);
    Txn tx(committer);
    var.write(tx, 1);
    EXPECT_THROW(committer.commit(), detail::AbortTx);
    committer.rollback(AbortCause::kWriteConflict);
    orec.restore(pre);
  };
  for (int i = 0; i < kHot; ++i) clash(hot);
  clash(cold);

  const ContentionSnapshot snap = profiler::snapshot();
  const auto top = profiler::hotspots(snap);
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0].stripe, rt.orecs().index_of(rt.orecs().for_address(&hot)));
  EXPECT_EQ(top[0].backend, "tl2");
  EXPECT_EQ(top[0].total, static_cast<std::uint64_t>(kHot));
  EXPECT_EQ(top[0].causes[0].first, "write_conflict");
  const auto pairs = profiler::conflict_pairs(snap);
  ASSERT_FALSE(pairs.empty());
  EXPECT_EQ(pairs[0].owner, "prof:tl2owner");
}

TEST(ProfilerAttribution, NorecValidationFailureNamesTheGeneration) {
  // NOrec has no per-stripe metadata: attribution names the global
  // sequence generation of the writing commit that invalidated the
  // snapshot — each staged conflict lands on a distinct generation.
  Runtime rt(with_backend(BackendKind::kNorec));
  TxnDesc& reader = rt.register_thread();
  TxnDesc& writer = rt.register_thread();
  TVar<std::int64_t> x(0), y(0);
  profiler::Armed armed;
  const std::uint16_t victim_id = profiler::intern_label("prof:norecvictim");
  for (int i = 0; i < kHot; ++i) {
    profiler::set_current_label(victim_id);
    reader.begin(true);
    Txn rtx(reader);
    (void)x.read(rtx);
    profiler::set_current_label(profiler::kUnlabeled);
    // A writing commit between the read and the next validation: the
    // value changed, so revalidation must fail.
    atomically(writer, [&](Txn& tx) { x.write(tx, x.read(tx) + 1); });
    EXPECT_THROW((void)y.read(rtx), detail::AbortTx);
    reader.rollback(AbortCause::kValidationFailed);
  }

  const ContentionSnapshot snap = profiler::snapshot();
  EXPECT_EQ(snap.sampled, static_cast<std::uint64_t>(kHot));
  ASSERT_EQ(snap.rows.size(), static_cast<std::size_t>(kHot))
      << "each conflict names its own generation";
  for (const SampleRow& r : snap.rows) {
    EXPECT_NE(r.stripe, profiler::kNoStripe);
    EXPECT_EQ(r.backend, "norec");
    EXPECT_EQ(r.cause, "validation_failed");
    EXPECT_EQ(r.victim, "prof:norecvictim");
  }
}

// --- data-structure site attribution (src/tds/) ---
//
// The skiplist/B+-tree transaction sites run under "tds:<structure>:<op>"
// labels; these tests stage the same conflict repeatedly through the real
// structure code and pin the attribution: every sample lands on one stripe
// and the victim→owner pair names the two structure sites that collided.

TEST(ProfilerAttribution, SkipListSitesPinOneStripeAndNameTheirLabels) {
  Runtime rt(with_backend(BackendKind::kOrecSwiss));
  TxnDesc& holder = rt.register_thread();
  TxnDesc& victim = rt.register_thread();
  tds::TSkipList list(/*seed=*/0x5eed);
  // Pre-populate quiescently. Under this seed 150 has a 3-level tower and
  // 300 a 4-level one, so the pending insert(150) below writes the head
  // sentinel's level-1 and level-2 links, and the victim's remove(300)
  // reads the head's level-2 link on its way down: they collide there.
  for (const std::int64_t key : {100, 200, 300}) {
    atomically(holder, [&](Txn& tx) { list.insert(tx, key, key); });
  }
  profiler::Armed armed;
  const std::uint16_t owner_id = profiler::intern_label("tds:skiplist:insert");
  const std::uint16_t victim_id = profiler::intern_label("tds:skiplist:remove");
  for (int i = 0; i < kHot; ++i) {
    // Holder: a pending insert, write locks held at encounter time.
    profiler::set_current_label(owner_id);
    holder.begin(true);
    Txn htx(holder);
    ASSERT_TRUE(list.insert(htx, 150, 150));
    // Victim: a remove elsewhere in the key space still collides (on the
    // head's level-2 link) and must abort at the same stripe each round.
    profiler::set_current_label(victim_id);
    victim.begin(true);
    Txn vtx(victim);
    EXPECT_THROW((void)list.remove(vtx, 300), detail::AbortTx);
    victim.rollback(AbortCause::kWriteConflict);
    // Roll the holder back so every round replays the identical conflict.
    holder.rollback(AbortCause::kUserRetry);
    profiler::set_current_label(profiler::kUnlabeled);
  }

  const ContentionSnapshot snap = profiler::snapshot();
  const auto top = profiler::hotspots(snap);
  ASSERT_FALSE(top.empty());
  EXPECT_NE(top[0].stripe, profiler::kNoStripe);
  EXPECT_EQ(top[0].total, static_cast<std::uint64_t>(kHot))
      << "the staged conflict must pin one stripe every round";
  EXPECT_EQ(top[0].backend, "orec_swiss");
  EXPECT_EQ(top[0].labels[0].first, "tds:skiplist:remove");
  const auto pairs = profiler::conflict_pairs(snap);
  bool found = false;
  for (const auto& p : pairs) {
    if (p.victim == "tds:skiplist:remove" && p.owner == "tds:skiplist:insert") {
      EXPECT_EQ(p.count, static_cast<std::uint64_t>(kHot));
      found = true;
    }
  }
  EXPECT_TRUE(found) << "victim→owner pair must name the skiplist sites";
}

TEST(ProfilerAttribution, BTreeSitesPinOneStripeAndNameTheirLabels) {
  Runtime rt(with_backend(BackendKind::kOrecSwiss));
  TxnDesc& holder = rt.register_thread();
  TxnDesc& victim = rt.register_thread();
  tds::TBTree tree;
  // Small tree: both ops hit the root leaf's key array and count word.
  for (const std::int64_t key : {10, 20, 30}) {
    atomically(holder, [&](Txn& tx) { tree.insert(tx, key, key); });
  }
  profiler::Armed armed;
  const std::uint16_t owner_id = profiler::intern_label("tds:btree:insert");
  const std::uint16_t victim_id = profiler::intern_label("tds:btree:remove");
  for (int i = 0; i < kHot; ++i) {
    profiler::set_current_label(owner_id);
    holder.begin(true);
    Txn htx(holder);
    ASSERT_TRUE(tree.insert(htx, 15, 15));
    profiler::set_current_label(victim_id);
    victim.begin(true);
    Txn vtx(victim);
    EXPECT_THROW((void)tree.remove(vtx, 30), detail::AbortTx);
    victim.rollback(AbortCause::kWriteConflict);
    holder.rollback(AbortCause::kUserRetry);
    profiler::set_current_label(profiler::kUnlabeled);
  }

  const ContentionSnapshot snap = profiler::snapshot();
  const auto top = profiler::hotspots(snap);
  ASSERT_FALSE(top.empty());
  EXPECT_NE(top[0].stripe, profiler::kNoStripe);
  EXPECT_EQ(top[0].total, static_cast<std::uint64_t>(kHot));
  EXPECT_EQ(top[0].backend, "orec_swiss");
  EXPECT_EQ(top[0].labels[0].first, "tds:btree:remove");
  const auto pairs = profiler::conflict_pairs(snap);
  bool found = false;
  for (const auto& p : pairs) {
    if (p.victim == "tds:btree:remove" && p.owner == "tds:btree:insert") {
      EXPECT_EQ(p.count, static_cast<std::uint64_t>(kHot));
      found = true;
    }
  }
  EXPECT_TRUE(found) << "victim→owner pair must name the B+-tree sites";
}

TEST(ProfilerAttribution, NonConflictCausesRecordTheSentinel) {
  Runtime rt(with_backend(BackendKind::kOrecSwiss));
  TxnDesc& ctx = rt.register_thread();
  profiler::Armed armed;
  ctx.begin(true);
  ctx.rollback(AbortCause::kUserRetry);
  const ContentionSnapshot snap = profiler::snapshot();
  ASSERT_EQ(snap.rows.size(), 1u);
  EXPECT_EQ(snap.rows[0].stripe, profiler::kNoStripe)
      << "no conflict site: the sentinel, not a stale stripe";
  EXPECT_EQ(snap.rows[0].cause, "user_retry");
}

TEST(ProfilerAttribution, DisarmedRunRecordsNothing) {
  Runtime rt(with_backend(BackendKind::kOrecSwiss));
  TxnDesc& holder = rt.register_thread();
  TxnDesc& victim = rt.register_thread();
  TVar<std::int64_t> x(0);
  profiler::arm();
  profiler::disarm();
  holder.begin(true);
  Txn htx(holder);
  x.write(htx, 1);
  victim.begin(true);
  Txn vtx(victim);
  EXPECT_THROW(x.write(vtx, 2), detail::AbortTx);
  victim.rollback(AbortCause::kWriteConflict);
  holder.commit();
  EXPECT_EQ(profiler::snapshot().sampled, 0u);
}

}  // namespace
}  // namespace rubic::stm
