#include "api/session.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <unordered_set>

#include "api/parallel.h"
#include "api/plan_io.h"
#include "candidate/windowing.h"
#include "util/fnv.h"
#include "util/stopwatch.h"

namespace mdmatch::api {

using candidate::IndexedEntry;
using candidate::IndexSnapshot;
using candidate::IndexSnapshotPtr;
using candidate::SortedKeyIndex;
using internal::ParallelChunks;

namespace {

/// True when some gap position g (a removal site in the final order) lies
/// in (i, j] — i.e. the removed entry used to sit between positions i and
/// j, so the pair's window distance shrank this flush. `gaps` is sorted.
bool SpansGap(const std::vector<size_t>& gaps, size_t i, size_t j) {
  auto it = std::upper_bound(gaps.begin(), gaps.end(), i);
  return it != gaps.end() && *it <= j;
}

/// FNV-1a over a staged delta: its (side, id, op, values) sequence in the
/// deterministic pending-map order. Two sessions staging identical deltas
/// from identical base versions produce the same fingerprint — the key
/// the IndexCatalog memoizes snapshot transitions under.
uint64_t FingerprintDelta(
    const std::map<std::pair<int, TupleId>, std::optional<Tuple>>& pending) {
  uint64_t hash = kFnvOffsetBasis;
  for (const auto& [key, op] : pending) {
    hash = FnvMixU64(hash, static_cast<uint64_t>(key.first));
    hash = FnvMixU64(hash, static_cast<uint64_t>(key.second));
    hash = FnvMixU64(hash, op.has_value() ? 1 : 2);
    if (op.has_value()) {
      for (const std::string& value : op->values()) {
        hash = FnvMixU64(hash, value.size());
        hash = FnvMixString(hash, value);
      }
    }
  }
  return hash;
}

/// The view's raw match pairs translated from (left seq, right seq) to
/// corpus positions — the addressing Matches()/Clusters() report in.
/// Corpus enumeration is seq-ascending, so position == walk index.
match::MatchResult TranslatedMatches(const SharedMatchState& state) {
  std::vector<uint32_t> pos[2];
  for (int side = 0; side < 2; ++side) {
    pos[side].assign(state.next_seq[side], UINT32_MAX);
    uint32_t index = 0;
    state.corpus[side].ForEach(
        [&pos, side, &index](uint64_t seq, const SessionRecordPtr&) {
          pos[side][seq] = index++;
        });
  }
  match::MatchResult out;
  state.matches.ForEach([&pos, &out](uint32_t l, uint32_t r) {
    out.Add(pos[0][l], pos[1][r]);
  });
  return out;
}

}  // namespace

// ------------------------------------------------------------ SessionView

Instance SessionView::Corpus() const {
  Relation left(plan_->pair().left());
  Relation right(plan_->pair().right());
  gen_->state->corpus[0].ForEach(
      [&left](uint64_t, const SessionRecordPtr& record) {
        (void)left.AppendTuple(record->tuple);
      });
  gen_->state->corpus[1].ForEach(
      [&right](uint64_t, const SessionRecordPtr& record) {
        (void)right.AppendTuple(record->tuple);
      });
  return Instance(std::move(left), std::move(right));
}

match::MatchResult SessionView::Matches() const {
  match::MatchResult raw = TranslatedMatches(*gen_->state);
  if (!plan_->options().transitive_closure) return raw;
  return match::ClusterPairs(raw, gen_->state->corpus[0].size(),
                             gen_->state->corpus[1].size())
      .ImpliedMatches();
}

match::Clustering SessionView::Clusters() const {
  return match::ClusterPairs(TranslatedMatches(*gen_->state),
                             gen_->state->corpus[0].size(),
                             gen_->state->corpus[1].size());
}

Result<uint64_t> SessionView::ClusterOf(int side, TupleId id) const {
  if (side != 0 && side != 1) {
    return Status::InvalidArgument("side must be 0 (left) or 1 (right)");
  }
  const IdEntry* entry = gen_->state->ids[side].Get(id);
  if (entry == nullptr) {
    return Status::NotFound("no record with id " + std::to_string(id) +
                            " on side " + std::to_string(side));
  }
  return entry->handle;
}

Result<bool> SessionView::SameCluster(int side_a, TupleId id_a, int side_b,
                                      TupleId id_b) const {
  auto a = ClusterOf(side_a, id_a);
  if (!a.ok()) return a.status();
  auto b = ClusterOf(side_b, id_b);
  if (!b.ok()) return b.status();
  return *a == *b;
}

// ----------------------------------------------------------- MatchSession

MatchSession::MatchSession(PlanPtr plan, SessionOptions options)
    : plan_(std::move(plan)), options_(std::move(options)) {
  assert(plan_ != nullptr && "MatchSession requires a compiled plan");
  if (options_.num_threads == 0) options_.num_threads = 1;
  const bool windowing =
      plan_->options().candidates == PlanOptions::Candidates::kWindowing;
  if (options_.catalog != nullptr) {
    catalog_entry_ =
        options_.catalog->Acquire(PlanFingerprint(*plan_), options_.corpus_id);
  }
  if (options_.pair_cache_capacity > 0) {
    pair_cache_ = std::make_unique<match::PairDecisionCache>(
        options_.pair_cache_capacity, /*shards=*/16,
        options_.cache_doorkeeper);
  }
  // No thread can see the session yet; the locks (taken in the same
  // mu_ -> publish_mu_ order a Flush uses) are uncontended and keep the
  // guarded-state discipline uniform for the analysis.
  util::MutexLock lock(mu_);
  indexes_ = IndexSnapshot::Empty(
      windowing ? plan_->sort_keys().size() : 0, !windowing);
  // Generation 0: the empty corpus, queryable from the first instant.
  // Every session numbers its initial empty state version 0 — what makes
  // the first flushes of catalog siblings share one transition.
  auto state = std::make_shared<SharedMatchState>();
  state->indexes = indexes_;
  auto gen = std::make_shared<SessionGeneration>();
  gen->state = std::move(state);
  util::MutexLock publish_lock(publish_mu_);
  published_ = std::move(gen);
}

Status MatchSession::CheckSide(int side) const {
  if (side != 0 && side != 1) {
    return Status::InvalidArgument("side must be 0 (left) or 1 (right)");
  }
  return Status::OK();
}

std::vector<std::string> MatchSession::RenderKeys(const Tuple& tuple,
                                                  int side) const {
  std::vector<std::string> keys;
  if (plan_->options().candidates == PlanOptions::Candidates::kWindowing) {
    keys.reserve(plan_->sort_keys().size());
    for (const auto& key : plan_->sort_keys()) {
      keys.push_back(key.Render(tuple, side));
    }
  } else {
    keys.push_back(plan_->block_key().Render(tuple, side));
  }
  return keys;
}

void MatchSession::RenderDerived(Record* record, int side) const {
  if (plan_->evaluator().needs_profiles()) {
    record->profile = plan_->evaluator().ProfileRecord(record->tuple, side);
  }
  if (pair_cache_ != nullptr) {
    record->fingerprint = match::TupleFingerprint(record->tuple);
  }
}

Status MatchSession::Upsert(int side, Tuple tuple) {
  MDMATCH_RETURN_NOT_OK(CheckSide(side));
  const Schema& schema =
      side == 0 ? plan_->pair().left() : plan_->pair().right();
  if (static_cast<int32_t>(tuple.arity()) != schema.arity()) {
    return Status::InvalidArgument("tuple arity does not match schema " +
                                   schema.name());
  }
  util::MutexLock lock(mu_);
  const auto [it, inserted] =
      pending_.insert_or_assign({side, tuple.id()}, std::move(tuple));
  (void)it;
  if (!inserted) ++pending_coalesced_;
  return Status::OK();
}

Status MatchSession::Upsert(int side, std::vector<Tuple> tuples) {
  for (Tuple& tuple : tuples) {
    MDMATCH_RETURN_NOT_OK(Upsert(side, std::move(tuple)));
  }
  return Status::OK();
}

Status MatchSession::Remove(int side, TupleId id) {
  MDMATCH_RETURN_NOT_OK(CheckSide(side));
  util::MutexLock lock(mu_);
  // An adopted (not yet materialized) session answers the membership
  // check from the published state — its build-side tries are empty.
  const bool known =
      build_stale_
          ? CurrentGeneration()->state->ids[side].Get(id) != nullptr
          : ids_[side].Get(id) != nullptr;
  if (!known && pending_.count({side, id}) == 0) {
    return Status::NotFound("no record with id " + std::to_string(id) +
                            " on side " + std::to_string(side));
  }
  const auto [it, inserted] =
      pending_.insert_or_assign({side, id}, std::nullopt);
  (void)it;
  if (!inserted) ++pending_coalesced_;
  return Status::OK();
}

void MatchSession::RebuildPositionsLocked(int side) {
  pos_by_seq_[side].assign(next_seq_[side], UINT32_MAX);
  for (uint32_t i = 0; i < corpus_[side].size(); ++i) {
    pos_by_seq_[side][corpus_[side][i]->seq] = i;
  }
}

void MatchSession::RebuildClustersLocked() {
  // A scratch union-find over the surviving pairs; only *changed* handles
  // are written back into ids_ (trie path copies), so a retirement wave
  // that splits few clusters stays cheap on the persistent side.
  match::UnionFind uf;
  std::vector<size_t> node[2];
  for (int side = 0; side < 2; ++side) {
    node[side].assign(next_seq_[side], SIZE_MAX);
    handle_by_seq_[side].resize(next_seq_[side], 0);
    for (const SessionRecordPtr& record : corpus_[side]) {
      node[side][record->seq] = uf.Add();
    }
  }
  for (const uint64_t key : raw_matches_) {
    uf.Union(node[0][key >> 32], node[1][static_cast<uint32_t>(key)]);
  }
  // The canonical handle of a component is the minimum packed (side, seq)
  // over its members — history-independent, so every session publishing
  // this corpus content publishes identical handles.
  std::vector<uint64_t> min_of(uf.size(), UINT64_MAX);
  std::vector<uint32_t> members_of(uf.size(), 0);
  for (int side = 0; side < 2; ++side) {
    for (const SessionRecordPtr& record : corpus_[side]) {
      const size_t root = uf.Find(node[side][record->seq]);
      min_of[root] = std::min(min_of[root], Handle(side, record->seq));
      ++members_of[root];
    }
  }
  cluster_members_.clear();
  for (int side = 0; side < 2; ++side) {
    for (const SessionRecordPtr& record : corpus_[side]) {
      const size_t root = uf.Find(node[side][record->seq]);
      const uint64_t handle = min_of[root];
      if (handle_by_seq_[side][record->seq] != handle) {
        handle_by_seq_[side][record->seq] = handle;
        ids_[side].GetMutable(record->tuple.id())->handle = handle;
      }
      if (members_of[root] >= 2) {
        cluster_members_[handle].push_back(
            {Handle(side, record->seq), record->tuple.id()});
      }
    }
  }
}

void MatchSession::RepairClustersLocked(
    const std::vector<std::pair<uint32_t, uint32_t>>& dropped,
    const std::unordered_set<uint64_t>& removed) {
  // Dropping edges (and the records a removal takes with them) can only
  // split the clusters that held them: recompute connectivity over just
  // those clusters' surviving members. Handles everywhere else cannot
  // change.
  std::unordered_set<uint64_t> affected;
  for (const auto& [l, r] : dropped) {
    // Both endpoints of a standing pair carry the same handle.
    affected.insert(handle_by_seq_[0][l]);
  }
  match::UnionFind uf;
  std::unordered_map<uint64_t, size_t> node_of;  // packed (side, seq) → node
  std::vector<std::vector<ClusterMember>> clusters;  // survivors per cluster
  for (const uint64_t handle : affected) {
    auto found = cluster_members_.find(handle);
    if (found == cluster_members_.end()) continue;  // already a singleton
    std::vector<ClusterMember>& survivors = clusters.emplace_back();
    for (const ClusterMember& member : found->second) {
      // Removed records leave the group; their ids are gone from ids_.
      if (removed.count(member.packed) != 0) continue;
      node_of.emplace(member.packed, uf.Add());
      survivors.push_back(member);
    }
    cluster_members_.erase(found);
  }
  // The surviving edges: probe each affected cluster's left × right member
  // pairs against the standing set.
  for (const std::vector<ClusterMember>& members : clusters) {
    for (const ClusterMember& a : members) {
      if ((a.packed >> 32) != 0) continue;
      for (const ClusterMember& b : members) {
        if ((b.packed >> 32) != 1) continue;
        if (raw_matches_.count(match::PairKey(
                static_cast<uint32_t>(a.packed),
                static_cast<uint32_t>(b.packed))) != 0) {
          uf.Union(node_of[a.packed], node_of[b.packed]);
        }
      }
    }
  }
  // Per surviving component: the canonical minimum-packed handle, written
  // back only where it changed, and the member list re-registered when
  // the component still has two or more records.
  std::unordered_map<size_t, std::vector<ClusterMember>> groups;
  for (const std::vector<ClusterMember>& members : clusters) {
    for (const ClusterMember& member : members) {
      groups[uf.Find(node_of[member.packed])].push_back(member);
    }
  }
  for (auto& [root, group] : groups) {
    uint64_t handle = UINT64_MAX;
    for (const ClusterMember& member : group) {
      handle = std::min(handle, member.packed);
    }
    for (const ClusterMember& member : group) {
      const int side = static_cast<int>(member.packed >> 32);
      const uint32_t seq = static_cast<uint32_t>(member.packed);
      if (handle_by_seq_[side][seq] != handle) {
        handle_by_seq_[side][seq] = handle;
        ids_[side].GetMutable(member.id)->handle = handle;
      }
    }
    if (group.size() >= 2) cluster_members_[handle] = std::move(group);
  }
}

void MatchSession::RetirePairsLocked(
    int side, uint32_t seq,
    std::vector<std::pair<uint32_t, uint32_t>>* dropped) {
  auto found = cluster_members_.find(handle_by_seq_[side][seq]);
  if (found == cluster_members_.end()) return;  // a singleton has no pairs
  for (const ClusterMember& member : found->second) {
    if (static_cast<int>(member.packed >> 32) == side) continue;
    const uint32_t other = static_cast<uint32_t>(member.packed);
    const uint32_t l = side == 0 ? seq : other;
    const uint32_t r = side == 0 ? other : seq;
    if (raw_matches_.erase(match::PairKey(l, r)) == 0) continue;
    pairs_.Erase(l, r);
    dropped->emplace_back(l, r);
  }
}

void MatchSession::MergeHandlesLocked(uint32_t l, uint32_t r) {
  const uint64_t hl = handle_by_seq_[0][l];
  const uint64_t hr = handle_by_seq_[1][r];
  if (hl == hr) return;  // already one cluster
  const uint64_t winner = std::min(hl, hr);
  const uint64_t loser = std::max(hl, hr);
  std::vector<ClusterMember>& members = cluster_members_[winner];
  if (members.empty()) {
    // The winner was a singleton: its handle is its own packed (side,
    // seq), and every cluster member is live, so resolve its id through
    // the position tables.
    const int side = static_cast<int>(winner >> 32);
    const uint32_t seq = static_cast<uint32_t>(winner);
    members.push_back(
        {winner, corpus_[side][pos_by_seq_[side][seq]]->tuple.id()});
  }
  // Alias-bound like every other same-thread lambda under mu_ (the body
  // is outside the analysis).
  auto& handle_by_seq = handle_by_seq_;
  auto& ids = ids_;
  auto rewrite = [&handle_by_seq, &ids, winner](const ClusterMember& member) {
    const int side = static_cast<int>(member.packed >> 32);
    const uint32_t seq = static_cast<uint32_t>(member.packed);
    handle_by_seq[side][seq] = winner;
    ids[side].GetMutable(member.id)->handle = winner;
  };
  auto found = cluster_members_.find(loser);
  if (found == cluster_members_.end()) {
    // The loser was a singleton.
    const ClusterMember member{
        loser,
        corpus_[static_cast<int>(loser >> 32)]
               [pos_by_seq_[static_cast<int>(loser >> 32)]
                           [static_cast<uint32_t>(loser)]]
                   ->tuple.id()};
    rewrite(member);
    members.push_back(member);
  } else {
    for (const ClusterMember& member : found->second) {
      rewrite(member);
    }
    members.insert(members.end(), found->second.begin(),
                   found->second.end());
    cluster_members_.erase(found);
  }
}

size_t MatchSession::PersistentAllocBytesLocked() const {
  return corpus_trie_[0].alloc_bytes() + corpus_trie_[1].alloc_bytes() +
         ids_[0].alloc_bytes() + ids_[1].alloc_bytes() +
         pairs_.alloc_bytes();
}

SharedMatchStatePtr MatchSession::PublishLocked(uint64_t version,
                                                size_t alloc_base,
                                                IngestReport* report) {
  ScopedTimer timer(&report->publish_seconds);
  auto state = std::make_shared<SharedMatchState>();
  state->version = version;
  state->parent_version = state_version_;
  state->indexes = indexes_;
  state->matches = pairs_.Freeze();
  pairs_.TakeDelta(&state->added_pairs, &state->retired_pairs);
  for (int side = 0; side < 2; ++side) {
    state->corpus[side] = corpus_trie_[side].Freeze();
    state->ids[side] = ids_[side].Freeze();
    state->next_seq[side] = next_seq_[side];
  }
  state->upserted = report->upserted;
  state->removed = report->removed;
  state->matches_added = report->matches_added;
  state->matches_dropped = report->matches_dropped;
  state_version_ = version;
  // What this flush path-copied into the persistent structures — the
  // whole structural footprint of the publish, where the previous design
  // copied the full maps, pair set and handle arrays.
  report->publish_bytes_copied +=
      PersistentAllocBytesLocked() - alloc_base;

  auto gen = std::make_shared<SessionGeneration>();
  gen->generation = next_generation_++;
  gen->parent_generation = gen->generation - 1;
  gen->state = state;
  report->generation = gen->generation;
  {
    // The only writer-side touch of the publication latch: one pointer
    // swap. The old generation's release (possibly the last reference)
    // happens after the latch is dropped.
    SessionGenerationPtr retired;
    util::MutexLock publish_lock(publish_mu_);
    retired.swap(published_);
    published_ = std::move(gen);
  }
  return state;
}

void MatchSession::AdoptLocked(SharedMatchStatePtr state,
                               IngestReport* report) {
  ScopedTimer timer(&report->publish_seconds);
  // The sibling's flush consumed a delta identical to ours (same base
  // version, same fingerprint), so our staging map is subsumed by the
  // adopted state.
  report->coalesced_deltas = pending_coalesced_;
  pending_coalesced_ = 0;
  pending_.clear();
  report->index_reused = true;
  report->match_reused = true;
  report->upserted = state->upserted;
  report->removed = state->removed;
  report->matches_added = state->matches_added;
  report->matches_dropped = state->matches_dropped;
  indexes_ = state->indexes;
  next_seq_[0] = state->next_seq[0];
  next_seq_[1] = state->next_seq[1];
  state_version_ = state->version;
  // Drop the build-side containers: while this session keeps adopting,
  // its per-replica match-state memory is O(1) — everything queryable
  // lives in the shared state. The next self-built flush re-materializes
  // them (MaterializeLocked).
  for (int side = 0; side < 2; ++side) {
    corpus_[side].clear();
    corpus_[side].shrink_to_fit();
    pos_by_seq_[side].clear();
    pos_by_seq_[side].shrink_to_fit();
    handle_by_seq_[side].clear();
    handle_by_seq_[side].shrink_to_fit();
    corpus_trie_[side] = util::PersistentTrie<SessionRecordPtr>();
    ids_[side] = util::PersistentTrie<IdEntry>();
  }
  raw_matches_ = std::unordered_set<uint64_t>();
  pairs_ = match::PersistentPairSet();
  cluster_members_.clear();
  build_stale_ = true;

  auto gen = std::make_shared<SessionGeneration>();
  gen->generation = next_generation_++;
  gen->parent_generation = gen->generation - 1;
  gen->state = std::move(state);
  report->generation = gen->generation;
  {
    SessionGenerationPtr retired;
    util::MutexLock publish_lock(publish_mu_);
    retired.swap(published_);
    published_ = std::move(gen);
  }
}

void MatchSession::MaterializeLocked() {
  const SharedMatchStatePtr state = CurrentGeneration()->state;
  for (int side = 0; side < 2; ++side) {
    next_seq_[side] = state->next_seq[side];
    corpus_trie_[side] =
        util::PersistentTrie<SessionRecordPtr>::FromFrozen(
            state->corpus[side]);
    ids_[side] = util::PersistentTrie<IdEntry>::FromFrozen(state->ids[side]);
    corpus_[side].clear();
    corpus_[side].reserve(state->corpus[side].size());
    pos_by_seq_[side].assign(next_seq_[side], UINT32_MAX);
    handle_by_seq_[side].assign(next_seq_[side], 0);
    auto& corpus = corpus_[side];
    auto& pos_by_seq = pos_by_seq_[side];
    state->corpus[side].ForEach(
        [&corpus, &pos_by_seq](uint64_t seq, const SessionRecordPtr& rec) {
          pos_by_seq[seq] = static_cast<uint32_t>(corpus.size());
          corpus.push_back(rec);
        });
  }
  // Handles and cluster member lists from the published id tries.
  std::unordered_map<uint64_t, std::vector<ClusterMember>> by_handle;
  for (int side = 0; side < 2; ++side) {
    auto& handle_by_seq = handle_by_seq_[side];
    state->ids[side].ForEach(
        [&handle_by_seq, &by_handle, side](uint64_t id,
                                           const IdEntry& entry) {
          handle_by_seq[entry.seq] = entry.handle;
          by_handle[entry.handle].push_back(
              {Handle(side, entry.seq), static_cast<TupleId>(id)});
        });
  }
  cluster_members_.clear();
  for (auto& [handle, members] : by_handle) {
    if (members.size() >= 2) cluster_members_[handle] = std::move(members);
  }
  // Standing pairs: the hash engine from a key-ordered walk, the
  // persistent set by adopting the frozen trie (journal starts empty).
  raw_matches_.clear();
  raw_matches_.reserve(state->matches.size());
  auto& raw_matches = raw_matches_;
  state->matches.ForEach([&raw_matches](uint32_t l, uint32_t r) {
    raw_matches.insert(match::PairKey(l, r));
  });
  pairs_ = match::PersistentPairSet::FromFrozen(state->matches);
  indexes_ = state->indexes;
  build_stale_ = false;
}

Result<IngestReport> MatchSession::Flush() {
  util::MutexLock lock(mu_);
  // Lock-scope aliases for the lambdas below. The analysis treats a
  // lambda body as a separate unannotated function (see
  // util/thread_annotations.h), and the sharded paths run `eval` on
  // ParallelChunks workers while this thread holds mu_ and keeps the
  // guarded state frozen for the whole call; the lambdas therefore read
  // that state through these aliases, bound here where the capability is
  // visibly held.
  auto& corpus = corpus_;
  auto& pos_by_seq = pos_by_seq_;
  auto& raw_matches = raw_matches_;
  auto& indexes = indexes_;
  const MatchPlan& plan = *plan_;
  const bool windowing =
      plan.options().candidates == PlanOptions::Candidates::kWindowing;
  const size_t window = plan.options().window_size;
  const size_t passes = windowing ? indexes_->window_passes().size() : 0;

  IngestReport report;

  // Nothing staged: report the standing state without touching the
  // snapshot chain or publishing. (Advancing a version for a no-op would
  // desynchronize this session from catalog siblings and churn the
  // transition memo.) Answered from the published state so it also holds
  // for an adopted session whose build side is dropped.
  if (pending_.empty()) {
    const SessionGenerationPtr current = CurrentGeneration();
    report.corpus_left = current->state->corpus[0].size();
    report.corpus_right = current->state->corpus[1].size();
    report.total_matches = current->state->matches.size();
    report.generation = current->generation;
    return report;
  }

  // Catalog sessions key the shared snapshot transition on the staged
  // delta's content; fingerprint it before the staging map is consumed.
  const uint64_t delta_fp =
      catalog_entry_ != nullptr ? FingerprintDelta(pending_) : 0;
  const uint64_t base_state_version = state_version_;

  // The catalog match store first: when a sibling session already flushed
  // this exact transition (same base version, same delta fingerprint),
  // adopt its whole published state — no candidate generation, no
  // evaluation, no clustering; one pointer publish. Otherwise this
  // session becomes the builder for the transition (granted a shared
  // state version) and MUST publish to the store when done.
  uint64_t state_version = 0;
  if (catalog_entry_ != nullptr) {
    candidate::IndexCatalog::MatchStateGrant grant =
        catalog_entry_->BeginMatchState(base_state_version, delta_fp);
    if (grant.adopted != nullptr) {
      SharedMatchStatePtr adopted =
          std::static_pointer_cast<const SharedMatchState>(grant.adopted);
      report.corpus_left = adopted->corpus[0].size();
      report.corpus_right = adopted->corpus[1].size();
      report.total_matches = adopted->matches.size();
      AdoptLocked(std::move(adopted), &report);
      return report;
    }
    state_version = grant.build_version;
  } else {
    state_version = next_state_version_++;
  }
  // A session that has been adopting shared states has no build-side
  // containers; rebuild them from the published state before building.
  if (build_stale_) MaterializeLocked();
  const size_t alloc_base = PersistentAllocBytesLocked();

  report.coalesced_deltas = pending_coalesced_;
  pending_coalesced_ = 0;

  // --- resolve the staged delta and update the persistent indexes ---
  // `inserted` covers new records and updated ones (an update re-enters
  // the indexes under its new keys); `removed` holds the packed handles of
  // removed records; `dropped` collects every standing pair this flush
  // retires (with its records, or by window drift) for cluster repair.
  std::vector<std::pair<int, uint32_t>> inserted;  // (side, seq)
  std::unordered_set<uint64_t> removed;
  std::vector<std::pair<uint32_t, uint32_t>> dropped;
  size_t delta_records = 0;
  const size_t base_size[2] = {corpus_[0].size(), corpus_[1].size()};
  std::vector<std::vector<IndexedEntry>> pass_removes(passes);
  {
    ScopedTimer timer(&report.index_seconds);

    std::vector<std::vector<IndexedEntry>> pass_inserts(passes);
    std::vector<IndexedEntry> block_removes;
    std::vector<IndexedEntry> block_inserts;
    std::vector<std::pair<int, uint32_t>> removal_positions;  // (side, pos)

    auto index_out = [&](const Record& record, int side, bool insert) {
      for (size_t p = 0; p < record.keys.size(); ++p) {
        IndexedEntry entry{record.keys[p], static_cast<uint8_t>(side),
                           record.seq};
        if (windowing) {
          (insert ? pass_inserts : pass_removes)[p].push_back(
              std::move(entry));
        } else {
          (insert ? block_inserts : block_removes).push_back(
              std::move(entry));
        }
      }
    };

    for (auto& [key, op] : pending_) {
      const auto [side, id] = key;
      const IdEntry* entry = ids_[side].Get(id);
      if (!op.has_value()) {
        if (entry == nullptr) continue;  // staged-only record
        const uint32_t pos = pos_by_seq_[side][entry->seq];
        const Record& record = *corpus_[side][pos];
        index_out(record, side, /*insert=*/false);
        RetirePairsLocked(side, record.seq, &dropped);
        removed.insert(Handle(side, record.seq));
        removal_positions.emplace_back(side, pos);
        corpus_trie_[side].Erase(record.seq);
        ids_[side].Erase(id);
        ++report.removed;
        continue;
      }
      ++report.upserted;
      if (entry != nullptr) {
        // Update in place: same seq (the corpus-order slot is kept), old
        // keys leave the indexes, new keys enter, standing matches retire
        // for re-evaluation against the new values. The old record object
        // stays untouched — published generations may still reference it;
        // the slot gets a freshly derived record instead. The id entry
        // (seq, handle) is unchanged; the handle resolves in the cluster
        // repair the retirement triggers.
        const uint32_t pos = pos_by_seq_[side][entry->seq];
        const Record& old = *corpus_[side][pos];
        index_out(old, side, /*insert=*/false);
        RetirePairsLocked(side, old.seq, &dropped);
        auto record = std::make_shared<Record>();
        record->seq = old.seq;
        record->keys = RenderKeys(*op, side);
        record->tuple = std::move(*op);
        RenderDerived(record.get(), side);
        index_out(*record, side, /*insert=*/true);
        inserted.emplace_back(side, record->seq);
        corpus_trie_[side].Set(record->seq, record);
        corpus_[side][pos] = std::move(record);
      } else {
        auto record = std::make_shared<Record>();
        record->seq = next_seq_[side]++;
        record->keys = RenderKeys(*op, side);
        record->tuple = std::move(*op);
        RenderDerived(record.get(), side);
        inserted.emplace_back(side, record->seq);
        handle_by_seq_[side].resize(next_seq_[side], 0);
        handle_by_seq_[side][record->seq] = Handle(side, record->seq);
        ids_[side].Set(id, IdEntry{record->seq, Handle(side, record->seq)});
        corpus_trie_[side].Set(record->seq, record);
        index_out(*record, side, /*insert=*/true);
        corpus_[side].push_back(std::move(record));
      }
    }
    delta_records = pending_.size();
    pending_.clear();

    // Erase removed records back-to-front so earlier positions stay
    // valid. Removals shift positions, so they force a map rebuild; a
    // flush of appends and in-place updates only registers the new tail.
    std::sort(removal_positions.rbegin(), removal_positions.rend());
    for (const auto& [side, pos] : removal_positions) {
      corpus_[side].erase(corpus_[side].begin() + pos);
    }
    if (!removal_positions.empty()) {
      RebuildPositionsLocked(0);
      RebuildPositionsLocked(1);
    } else {
      for (int side = 0; side < 2; ++side) {
        pos_by_seq_[side].resize(next_seq_[side], UINT32_MAX);
        for (uint32_t i = static_cast<uint32_t>(base_size[side]);
             i < corpus_[side].size(); ++i) {
          pos_by_seq_[side][corpus_[side][i]->seq] = i;
        }
      }
    }

    report.matches_dropped += dropped.size();

    // Advance the index chain to the next snapshot. A catalog session
    // first consults the shared entry: when a sibling already built this
    // exact transition, its snapshot is adopted and the merge is skipped.
    {
      ScopedTimer merge_timer(&report.merge_seconds);
      if (catalog_entry_ != nullptr) {
        indexes_ = catalog_entry_->Advance(
            indexes_->version(), delta_fp, &report.index_reused,
            [&](uint64_t version) {
              return IndexSnapshot::Advance(
                  std::move(indexes), pass_removes, std::move(pass_inserts),
                  block_removes, block_inserts, version);
            });
      } else {
        indexes_ = IndexSnapshot::Advance(
            std::move(indexes_), pass_removes, std::move(pass_inserts),
            block_removes, block_inserts, next_version_++);
      }
      // Gap and insertion positions (per pass, sorted) in the post-merge
      // order.
      if (windowing) {
        gaps_scratch_.assign(passes, {});
        inserts_scratch_.assign(passes, {});
        for (size_t p = 0; p < passes; ++p) {
          const SortedKeyIndex& idx = indexes_->window_passes()[p];
          for (const IndexedEntry& e : pass_removes[p]) {
            gaps_scratch_[p].push_back(idx.LowerBound(e));
          }
          for (const auto& [side, seq] : inserted) {
            inserts_scratch_[p].push_back(idx.LowerBound(
                {corpus_[side][pos_by_seq_[side][seq]]->keys[p],
                 static_cast<uint8_t>(side), seq}));
          }
          std::sort(gaps_scratch_[p].begin(), gaps_scratch_[p].end());
          std::sort(inserts_scratch_[p].begin(), inserts_scratch_[p].end());
        }
      }
    }
  }

  // --- generate + evaluate the delta's candidate pairs ---
  const match::PairDecisionCache::Stats cache_before =
      pair_cache_ != nullptr ? pair_cache_->stats()
                             : match::PairDecisionCache::Stats{};
  std::vector<std::pair<uint32_t, uint32_t>> new_matches;
  {
    ScopedTimer timer(&report.match_seconds);
    const bool sharded = options_.num_threads > 1 &&
                         options_.shard_min_delta > 0 &&
                         delta_records >= options_.shard_min_delta;
    std::atomic<size_t> cache_hits{0};
    auto eval = [&](uint32_t l, uint32_t r) {
      const Record& left = *corpus[0][pos_by_seq[0][l]];
      const Record& right = *corpus[1][pos_by_seq[1][r]];
      auto evaluate = [&] {
        return plan.MatchesPair(left.tuple, right.tuple, &left.profile,
                                &right.profile);
      };
      if (pair_cache_ == nullptr) return evaluate();
      return pair_cache_->GetOrCompute(
          match::PairDecisionCache::Key{left.tuple.id(), right.tuple.id(),
                                        left.fingerprint, right.fingerprint},
          &cache_hits, evaluate);
    };
    auto seq_pair = [](const IndexedEntry& a,
                       const IndexedEntry& b) -> std::pair<uint32_t, uint32_t> {
      return a.side == 0 ? std::make_pair(a.seq, b.seq)
                         : std::make_pair(b.seq, a.seq);
    };

    if (sharded) {
      // The sharded paths fuse candidate scan and evaluation per shard;
      // their whole time lands in eval_seconds.
      ScopedTimer eval_timer(&report.eval_seconds);
      report.shards_used =
          windowing ? ShardedWindowFlush(eval, seq_pair, window, &new_matches,
                                         &report)
                    : ShardedBlockFlush(inserted, eval, &new_matches,
                                        &report);
    } else if (windowing && window >= 2) {
      // Delta path: scan the final order around every inserted entry
      // (pairs gaining a delta endpoint) and around every removal gap
      // (old pairs whose distance shrank below the window).
      match::CandidateSet cand;
      {
        ScopedTimer scan_timer(&report.scan_seconds);
        std::vector<const IndexedEntry*> span;  // reused window buffer
        auto add_pair = [&](const IndexedEntry& a, const IndexedEntry& b) {
          if (a.side == b.side) return;
          auto [l, r] = seq_pair(a, b);
          if (raw_matches.count(match::PairKey(l, r)) == 0) cand.Add(l, r);
        };
        for (size_t p = 0; p < passes; ++p) {
          const SortedKeyIndex& idx = indexes_->window_passes()[p];
          const size_t n = idx.size();
          for (const size_t center : inserts_scratch_[p]) {
            const size_t lo = center >= window - 1 ? center - (window - 1)
                                                   : 0;
            const size_t hi = std::min(n, center + window);
            idx.SpanInto(lo, hi, &span);
            const size_t center_off = center - lo;
            for (size_t j = 0; j < span.size(); ++j) {
              if (j == center_off) continue;
              add_pair(*span[std::min(j, center_off)],
                       *span[std::max(j, center_off)]);
            }
          }
          for (size_t gap : gaps_scratch_[p]) {
            const size_t lo = gap >= window - 1 ? gap - (window - 1) : 0;
            const size_t hi = std::min(n, gap + window - 1);
            idx.SpanInto(lo, hi, &span);
            for (size_t i = 0; i < span.size(); ++i) {
              const size_t jhi = std::min(span.size(), i + window);
              for (size_t j = i + 1; j < jhi; ++j) {
                add_pair(*span[i], *span[j]);
              }
            }
          }
        }
      }
      if (options_.batch_eval && plan.evaluator().BatchProfitable()) {
        EvaluatePairsBatch(cand.pairs(), &cache_hits, &new_matches, &report);
      } else {
        EvaluatePairs(cand.pairs(), eval, &new_matches, &report);
      }
    } else if (!windowing) {
      // Delta path, blocking: each inserted record against the opposite
      // side of its block (PairSet-deduped, so intra-delta pairs emitted
      // from both endpoints collapse).
      match::CandidateSet cand;
      {
        ScopedTimer scan_timer(&report.scan_seconds);
        const candidate::BlockIndex* blocks = indexes_->block();
        for (const auto& [side, seq] : inserted) {
          const Record& record = *corpus_[side][pos_by_seq_[side][seq]];
          const candidate::BlockIndex::Block* block =
              blocks->Find(record.keys[0]);
          if (block == nullptr) continue;
          const std::vector<uint32_t>& others =
              side == 0 ? block->right : block->left;
          for (uint32_t other : others) {
            const uint32_t l = side == 0 ? seq : other;
            const uint32_t r = side == 0 ? other : seq;
            if (raw_matches_.count(match::PairKey(l, r)) == 0) {
              cand.Add(l, r);
            }
          }
        }
      }
      if (options_.batch_eval && plan.evaluator().BatchProfitable()) {
        EvaluatePairsBatch(cand.pairs(), &cache_hits, &new_matches, &report);
      } else {
        EvaluatePairs(cand.pairs(), eval, &new_matches, &report);
      }
    }
    report.cache_hits = cache_hits.load();
    if (pair_cache_ != nullptr) {
      const match::PairDecisionCache::Stats after = pair_cache_->stats();
      report.cache_lookups = (after.hits - cache_before.hits) +
                             (after.misses - cache_before.misses);
      report.cache_evictions = after.evictions - cache_before.evictions;
    }
  }

  // --- retire standing matches insertions pushed out of every window,
  //     repair the clusters that lost an edge, fold in the new matches,
  //     and publish the next generation ---
  {
    ScopedTimer timer(&report.cluster_seconds);
    if (windowing && window >= 2 && !inserted.empty() &&
        !raw_matches_.empty()) {
      ScopedTimer rerank_timer(&report.rerank_seconds);
      report.matches_dropped += RerankDriftLocked(&dropped, &report);
    }

    // A bulk wave (initial load, huge catch-up delta) folds in faster
    // through one full rebuild than through per-pair repair and handle
    // merges.
    report.clusters_rebuilt =
        new_matches.size() * 4 >= corpus_[0].size() + corpus_[1].size();
    if (!report.clusters_rebuilt && !dropped.empty()) {
      RepairClustersLocked(dropped, removed);
    }
    // Fold in the new matches. The persistent pair set's journal nets out
    // same-flush churn for the published parent-delta (a pair retired
    // above and re-established here appears in neither list).
    for (const auto& [l, r] : new_matches) {
      if (raw_matches_.insert(match::PairKey(l, r)).second) {
        ++report.matches_added;
        pairs_.Add(l, r);
        if (!report.clusters_rebuilt) MergeHandlesLocked(l, r);
      }
    }
    if (report.clusters_rebuilt) RebuildClustersLocked();

    SharedMatchStatePtr published =
        PublishLocked(state_version, alloc_base, &report);
    if (catalog_entry_ != nullptr) {
      catalog_entry_->PublishMatchState(base_state_version, delta_fp,
                                        published);
    }
  }

  report.corpus_left = corpus_[0].size();
  report.corpus_right = corpus_[1].size();
  report.total_matches = raw_matches_.size();
  return report;
}

size_t MatchSession::RerankDriftLocked(
    std::vector<std::pair<uint32_t, uint32_t>>* dropped,
    IngestReport* report) {
  // A standing pair was a candidate in some pass before this flush, and
  // removals only shrink distances, so it can leave every window only if
  // inserted entries landed between its endpoints in a pass where at most
  // window-2 surviving entries separate them. Per pass, each such pair is
  // found from the leftmost insertion run between its endpoints: the
  // left endpoint is the i-th surviving entry before the run (no run in
  // between), the right one the j-th surviving entry after it, and
  // i + j <= window.
  const auto& widx = indexes_->window_passes();
  const size_t window = plan_->options().window_size;
  // (pair key, still within the window in the pass that found it).
  std::vector<std::pair<uint64_t, bool>> straddlers;
  std::vector<const IndexedEntry*> span;
  for (size_t p = 0; p < widx.size(); ++p) {
    const SortedKeyIndex& idx = widx[p];
    const std::vector<size_t>& ins = inserts_scratch_[p];
    const size_t n = idx.size();
    size_t run_floor = 0;  // first position after the previous run
    for (size_t k = 0; k < ins.size();) {
      const size_t a = ins[k];  // the run [a, b] of inserted positions
      while (k + 1 < ins.size() && ins[k + 1] == ins[k] + 1) ++k;
      const size_t b = ins[k++];
      const size_t lo = std::max(run_floor, a >= window - 1 ? a - (window - 1)
                                                            : size_t{0});
      run_floor = b + 1;
      // Up to window-1 surviving entries after the run, stepping over
      // later runs.
      size_t hi = b + 1;
      for (size_t q = k, found = 0; hi < n && found < window - 1; ++hi) {
        if (q < ins.size() && ins[q] == hi) {
          ++q;
        } else {
          ++found;
        }
      }
      if (lo == a || hi == b + 1) continue;  // nothing on one side
      idx.SpanInto(lo, hi, &span);
      size_t j = 0;
      for (size_t pos = b + 1, q = k; pos < hi; ++pos) {
        if (q < ins.size() && ins[q] == pos) {
          ++q;
          continue;
        }
        ++j;
        const IndexedEntry& y = *span[pos - lo];
        const uint64_t hy = handle_by_seq_[y.side][y.seq];
        for (size_t i = 1; i + j <= window && i <= a - lo; ++i) {
          const IndexedEntry& x = *span[a - i - lo];
          // Standing pairs join records of one cluster: comparing the
          // (possibly coarser, never finer) pre-flush handles filters
          // out almost every non-pair before the hash probe.
          if (x.side == y.side || handle_by_seq_[x.side][x.seq] != hy) {
            continue;
          }
          const uint64_t key = x.side == 0 ? match::PairKey(x.seq, y.seq)
                                           : match::PairKey(y.seq, x.seq);
          if (raw_matches_.count(key) == 0) continue;
          straddlers.emplace_back(key, pos - (a - i) <= window - 1);
        }
      }
    }
  }
  // Dedupe across passes; a pair some pass already showed within the
  // window stays, the rest are re-ranked against every pass.
  std::sort(straddlers.begin(), straddlers.end());
  size_t drifted = 0;
  for (size_t i = 0; i < straddlers.size();) {
    const uint64_t key = straddlers[i].first;
    bool near = false;
    for (; i < straddlers.size() && straddlers[i].first == key; ++i) {
      near = near || straddlers[i].second;
    }
    ++report->rerank_pairs_checked;
    if (near) continue;
    const uint32_t l = static_cast<uint32_t>(key >> 32);
    const uint32_t r = static_cast<uint32_t>(key);
    const Record& left = *corpus_[0][pos_by_seq_[0][l]];
    const Record& right = *corpus_[1][pos_by_seq_[1][r]];
    for (size_t p = 0; p < widx.size() && !near; ++p) {
      const size_t pl = widx[p].LowerBound({left.keys[p], 0, l});
      const size_t pr = widx[p].LowerBound({right.keys[p], 1, r});
      near = (pl > pr ? pl - pr : pr - pl) <= window - 1;
    }
    if (near) continue;
    raw_matches_.erase(key);
    pairs_.Erase(l, r);
    dropped->emplace_back(l, r);
    ++drifted;
  }
  return drifted;
}

void MatchSession::EvaluatePairs(
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
    const std::function<bool(uint32_t, uint32_t)>& eval,
    std::vector<std::pair<uint32_t, uint32_t>>* out, IngestReport* report) {
  ScopedTimer eval_timer(&report->eval_seconds);
  report->pairs_evaluated += pairs.size();
  size_t workers = options_.num_threads;
  if (options_.min_pairs_per_thread > 0) {
    workers = std::min(workers, pairs.size() / options_.min_pairs_per_thread);
  }
  if (workers <= 1) {
    for (const auto& [l, r] : pairs) {
      if (eval(l, r)) out->emplace_back(l, r);
    }
    return;
  }
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> local(workers);
  ParallelChunks(pairs.size(), workers,
                 [&](size_t w, size_t begin, size_t end) {
                   for (size_t i = begin; i < end; ++i) {
                     const auto& [l, r] = pairs[i];
                     if (eval(l, r)) local[w].emplace_back(l, r);
                   }
                 });
  for (const auto& chunk : local) {
    out->insert(out->end(), chunk.begin(), chunk.end());
  }
}

void MatchSession::EvaluatePairsBatch(
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
    std::atomic<size_t>* cache_hits,
    std::vector<std::pair<uint32_t, uint32_t>>* out, IngestReport* report) {
  ScopedTimer eval_timer(&report->eval_seconds);
  report->pairs_evaluated += pairs.size();
  if (pairs.empty()) return;
  const match::CompiledEvaluator& evaluator = plan_->evaluator();
  batch_arena_.Reset();
  util::Arena& arena = batch_arena_;

  // Columns are indexed by seq (the pair elements); size them to the
  // largest touched seq and fill only the rows some pair references.
  uint32_t max_seq[2] = {0, 0};
  for (const auto& [l, r] : pairs) {
    max_seq[0] = std::max(max_seq[0], l);
    max_seq[1] = std::max(max_seq[1], r);
  }
  match::ValueInterner interner;
  match::BatchColumns cols[2];
  uint8_t* filled[2];
  for (int side = 0; side < 2; ++side) {
    const size_t rows = static_cast<size_t>(max_seq[side]) + 1;
    cols[side] = evaluator.MakeBatchColumns(side, rows, &arena);
    filled[side] = arena.AllocateArrayOf<uint8_t>(rows);
    std::fill_n(filled[side], rows, uint8_t{0});
  }
  auto fill_row = [&](int side, uint32_t seq) {
    if (filled[side][seq] != 0) return;
    filled[side][seq] = 1;
    const Record& rec = *corpus_[side][pos_by_seq_[side][seq]];
    evaluator.FillBatchRow(&cols[side], seq, rec.tuple, &rec.profile,
                           &interner);
  };
  for (const auto& [l, r] : pairs) {
    fill_row(0, l);
    fill_row(1, r);
  }

  // One cache Lookup per pair up front (the batch-path shape of
  // GetOrCompute); decided lanes are skipped by MatchesBatch.
  uint8_t* decided = arena.AllocateArrayOf<uint8_t>(pairs.size());
  uint8_t* decision = arena.AllocateArrayOf<uint8_t>(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    decided[i] = 0;
    decision[i] = 0;
    if (pair_cache_ == nullptr) continue;
    const auto& [l, r] = pairs[i];
    const Record& left = *corpus_[0][pos_by_seq_[0][l]];
    const Record& right = *corpus_[1][pos_by_seq_[1][r]];
    if (auto cached = pair_cache_->Lookup(match::PairDecisionCache::Key{
            left.tuple.id(), right.tuple.id(), left.fingerprint,
            right.fingerprint})) {
      decided[i] = 1;
      decision[i] = *cached ? 1 : 0;
      cache_hits->fetch_add(1, std::memory_order_relaxed);
    }
  }

  const candidate::PairStrips strips = candidate::BuildStrips(pairs, &arena);
  uint8_t* lane_skip = arena.AllocateArrayOf<uint8_t>(strips.lanes);
  uint8_t* lane_dec = arena.AllocateArrayOf<uint8_t>(strips.lanes);
  for (size_t lane = 0; lane < strips.lanes; ++lane) {
    lane_skip[lane] = decided[strips.lane_pair[lane]];
    lane_dec[lane] = 0;
  }
  match::BatchStats stats;
  for (size_t b = 0; b < strips.num_batches; ++b) {
    const uint32_t first = strips.batch_first_lane[b];
    evaluator.MatchesBatch(cols[0], cols[1], strips.batches[b],
                           lane_skip + first, lane_dec + first, &stats);
  }
  for (size_t lane = 0; lane < strips.lanes; ++lane) {
    const uint32_t p = strips.lane_pair[lane];
    if (decided[p] == 0) decision[p] = lane_dec[lane];
  }
  // Inserts and output in original pair order — the order EvaluatePairs
  // produces.
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto& [l, r] = pairs[i];
    if (pair_cache_ != nullptr && decided[i] == 0) {
      const Record& left = *corpus_[0][pos_by_seq_[0][l]];
      const Record& right = *corpus_[1][pos_by_seq_[1][r]];
      pair_cache_->Insert(
          match::PairDecisionCache::Key{left.tuple.id(), right.tuple.id(),
                                        left.fingerprint, right.fingerprint},
          decision[i] != 0);
    }
    if (decision[i] != 0) out->emplace_back(l, r);
  }
  report->strips += stats.strips;
  report->simd_lanes_evaluated += stats.simd_lanes_evaluated;
  report->arena_bytes += arena.bytes_used();
}

size_t MatchSession::ShardedWindowFlush(
    const std::function<bool(uint32_t, uint32_t)>& eval,
    const std::function<std::pair<uint32_t, uint32_t>(
        const candidate::IndexedEntry&, const candidate::IndexedEntry&)>&
        seq_pair,
    size_t window, std::vector<std::pair<uint32_t, uint32_t>>* out,
    IngestReport* report) {
  const auto& widx = indexes_->window_passes();
  const size_t passes = widx.size();
  const size_t n = passes == 0 ? 0 : widx[0].size();
  if (window < 2 || n == 0) return 1;

  // Per pass: flag the positions the delta entered at.
  std::vector<std::vector<uint8_t>> is_delta(passes);
  for (size_t p = 0; p < passes; ++p) {
    is_delta[p].assign(widx[p].size(), 0);
    for (const size_t pos : inserts_scratch_[p]) is_delta[p][pos] = 1;
  }

  const size_t shards = std::min(options_.num_threads, n);
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> local(shards);
  std::vector<size_t> local_evals(shards, 0);
  // Worker-lambda aliases: the caller holds mu_ (REQUIRES above) and
  // keeps this state frozen while the workers read it; the lambda body is
  // outside the analysis, so it reads through aliases bound here.
  const auto& gaps_by_pass = gaps_scratch_;
  const auto& raw_matches = raw_matches_;
  // Each shard owns a contiguous range of positions — a contiguous range
  // of the derived-key order — in every pass; a window crossing the shard
  // boundary belongs to the shard of its left endpoint, which reads past
  // its range into the (immutable) snapshot.
  ParallelChunks(n, shards, [&](size_t w, size_t begin, size_t end) {
    match::PairSet seen;  // dedupes across this shard's passes
    for (size_t p = 0; p < passes; ++p) {
      const SortedKeyIndex& idx = widx[p];
      const size_t np = idx.size();
      if (begin >= np) continue;
      const std::vector<size_t>& gaps = gaps_by_pass[p];
      // One contiguous walk per shard per pass: the owned range plus the
      // window tail read past the boundary.
      const auto span = idx.Span(begin, std::min(np, end + window - 1));
      for (size_t i = begin; i < end && i < np; ++i) {
        const size_t jhi = std::min(np, i + window);
        for (size_t j = i + 1; j < jhi; ++j) {
          const IndexedEntry& a = *span[i - begin];
          const IndexedEntry& b = *span[j - begin];
          if (a.side == b.side) continue;
          if (!is_delta[p][i] && !is_delta[p][j] &&
              !(!gaps.empty() && SpansGap(gaps, i, j))) {
            continue;
          }
          auto [l, r] = seq_pair(a, b);
          if (raw_matches.count(match::PairKey(l, r)) != 0) continue;
          if (!seen.Add(l, r)) continue;
          ++local_evals[w];
          if (eval(l, r)) local[w].emplace_back(l, r);
        }
      }
    }
  });

  match::PairSet merged;  // dedupes the same pair found by two shards
  for (size_t w = 0; w < shards; ++w) {
    report->pairs_evaluated += local_evals[w];
    for (const auto& [l, r] : local[w]) {
      if (merged.Add(l, r)) out->emplace_back(l, r);
    }
  }
  return shards;
}

size_t MatchSession::ShardedBlockFlush(
    const std::vector<std::pair<int, uint32_t>>& inserted,
    const std::function<bool(uint32_t, uint32_t)>& eval,
    std::vector<std::pair<uint32_t, uint32_t>>* out, IngestReport* report) {
  // The delta's key range, sharded: the touched block keys in sorted
  // order, split into contiguous ranges. Every candidate pair lives in
  // exactly one block, so shard outputs are disjoint.
  std::vector<std::string> touched;
  std::unordered_set<uint64_t> delta;
  for (const auto& [side, seq] : inserted) {
    touched.push_back(corpus_[side][pos_by_seq_[side][seq]]->keys[0]);
    delta.insert(Handle(side, seq));
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  if (touched.empty()) return 1;

  const candidate::BlockIndex* blocks = indexes_->block();
  const size_t shards = std::min(options_.num_threads, touched.size());
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> local(shards);
  std::vector<size_t> local_evals(shards, 0);
  // Worker-lambda alias; see ShardedWindowFlush.
  const auto& raw_matches = raw_matches_;
  ParallelChunks(touched.size(), shards,
                 [&](size_t w, size_t begin, size_t end) {
                   for (size_t k = begin; k < end; ++k) {
                     const candidate::BlockIndex::Block* block =
                         blocks->Find(touched[k]);
                     if (block == nullptr) continue;
                     for (uint32_t l : block->left) {
                       for (uint32_t r : block->right) {
                         if (delta.count(Handle(0, l)) == 0 &&
                             delta.count(Handle(1, r)) == 0) {
                           continue;
                         }
                         if (raw_matches.count(match::PairKey(l, r)) != 0) {
                           continue;
                         }
                         ++local_evals[w];
                         if (eval(l, r)) local[w].emplace_back(l, r);
                       }
                     }
                   }
                 });
  for (size_t w = 0; w < shards; ++w) {
    report->pairs_evaluated += local_evals[w];
    out->insert(out->end(), local[w].begin(), local[w].end());
  }
  return shards;
}

size_t MatchSession::pending_ops() const {
  util::MutexLock lock(mu_);
  return pending_.size();
}

}  // namespace mdmatch::api
