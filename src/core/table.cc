#include "core/table.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "core/merge_policy.h"
#include "core/row_codec.h"
#include "core/tablet_writer.h"
#include "util/fault.h"
#include "util/logger.h"

namespace lt {
namespace {

std::string TabletFileName(uint64_t seq) {
  char buf[32];
  snprintf(buf, sizeof(buf), "%06llu.tab", static_cast<unsigned long long>(seq));
  return buf;
}

void SortMetas(std::vector<TabletMeta>* metas) {
  std::sort(metas->begin(), metas->end(),
            [](const TabletMeta& a, const TabletMeta& b) {
              if (a.min_ts != b.min_ts) return a.min_ts < b.min_ts;
              if (a.max_ts != b.max_ts) return a.max_ts < b.max_ts;
              return a.filename < b.filename;
            });
}

int CompareFullKeys(const Schema& schema, const Key& a, const Key& b) {
  for (size_t i = 0; i < schema.num_key_columns(); i++) {
    int r = a[i].Compare(b[i]);
    if (r != 0) return r;
  }
  return 0;
}

}  // namespace

Table::Table(Env* env, std::shared_ptr<Clock> clock, std::string dir,
             TableOptions options)
    : env_(env), clock_(std::move(clock)), dir_(std::move(dir)),
      opts_(options) {
  // Standalone tables (no DB-injected shared cache) get a private one when
  // sized; tables under a DB share the DB-wide cache instead.
  if (!opts_.block_cache && opts_.block_cache_bytes > 0) {
    opts_.block_cache = std::make_shared<Cache>(opts_.block_cache_bytes);
  }
  if (!opts_.logger) opts_.logger = Logger::Default();
}

Status Table::Create(Env* env, std::shared_ptr<Clock> clock,
                     const std::string& dir, const std::string& name,
                     const Schema& schema, const TableOptions& options,
                     std::unique_ptr<Table>* out) {
  LT_RETURN_IF_ERROR(schema.Validate());
  if (options.format_version > kTabletFormatLatest) {
    return Status::InvalidArgument("unknown tablet format version");
  }
  LT_RETURN_IF_ERROR(env->CreateDirIfMissing(dir));
  std::unique_ptr<Table> table(new Table(env, clock, dir, options));
  if (env->FileExists(table->DescriptorPath())) {
    return Status::AlreadyExists("table already exists in " + dir);
  }
  table->name_ = name;
  table->schema_ = std::make_shared<const Schema>(schema);
  table->ttl_ = options.ttl;
  {
    std::lock_guard<std::mutex> lock(table->mu_);
    LT_RETURN_IF_ERROR(table->SaveDescriptorLocked());
  }
  *out = std::move(table);
  return Status::OK();
}

Status Table::Open(Env* env, std::shared_ptr<Clock> clock,
                   const std::string& dir, const TableOptions& options,
                   std::unique_ptr<Table>* out) {
  if (options.format_version > kTabletFormatLatest) {
    return Status::InvalidArgument("unknown tablet format version");
  }
  std::unique_ptr<Table> table(new Table(env, clock, dir, options));
  TableDescriptor desc;
  LT_RETURN_IF_ERROR(TableDescriptor::Load(env, table->DescriptorPath(), &desc));
  table->name_ = desc.table_name;
  table->schema_ = std::make_shared<const Schema>(desc.schema);
  table->ttl_ = desc.ttl;
  table->next_file_seq_ = desc.next_file_seq;
  desc.SortTablets();
  table->tablets_ = desc.tablets;

  // Remove files a crash mid-flush or mid-merge left unreferenced.
  // Quarantined tablets (`*.corrupt`) are kept for post-mortems.
  std::set<std::string> live;
  for (const TabletMeta& m : table->tablets_) live.insert(m.filename);
  std::vector<std::string> children;
  LT_RETURN_IF_ERROR(env->GetChildren(dir, &children));
  for (const std::string& child : children) {
    if (child == "DESC") continue;
    if (child.ends_with(".corrupt")) continue;
    if (!live.count(child)) env->RemoveFile(dir + "/" + child);
  }

  std::vector<std::pair<std::string, Status>> doomed;
  for (const TabletMeta& m : table->tablets_) {
    std::shared_ptr<TabletReader> reader;
    Status s = TabletReader::Open(env, table->TabletPath(m.filename), &reader,
                                  table->opts_.block_cache, &table->stats_);
    if (s.ok() && options.verify_open) s = reader->Load();
    if (!s.ok()) {
      // A missing or corrupt tablet must not brick the whole table: the
      // paper's contract is that persisted data stays *recoverable*, so we
      // quarantine the bad tablet and keep serving the rest.
      if (!ShouldQuarantine(s)) return s;
      doomed.emplace_back(m.filename, std::move(s));
      continue;
    }
    table->readers_[m.filename] = std::move(reader);
    if (!table->has_rows_ || m.max_ts > table->max_row_ts_) {
      table->max_row_ts_ = m.max_ts;
      table->has_rows_ = m.row_count > 0 || table->has_rows_;
    }
    if (m.row_count > 0) table->has_rows_ = true;
  }
  if (!doomed.empty()) {
    std::lock_guard<std::mutex> lock(table->mu_);
    for (const auto& [fname, why] : doomed) {
      table->QuarantineTabletLocked(fname, why);
    }
  }
  *out = std::move(table);
  return Status::OK();
}

Status Table::Destroy(Env* env, const std::string& dir) {
  std::vector<std::string> children;
  Status s = env->GetChildren(dir, &children);
  if (s.IsNotFound()) return Status::OK();
  LT_RETURN_IF_ERROR(s);
  for (const std::string& child : children) {
    LT_RETURN_IF_ERROR(env->RemoveFile(dir + "/" + child));
  }
  return Status::OK();
}

std::shared_ptr<const Schema> Table::schema() const {
  std::lock_guard<std::mutex> lock(mu_);
  return schema_;
}

Timestamp Table::ttl() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ttl_;
}

Timestamp Table::ExpiryCutoffLocked(Timestamp now) const {
  if (ttl_ <= 0) return std::numeric_limits<Timestamp>::min();
  return now - ttl_;
}

void Table::QuarantineTabletLocked(const std::string& fname,
                                   const Status& why) {
  const std::string path = TabletPath(fname);
  opts_.logger->Warn("tablet_quarantined",
                     {{"table", name_}, {"tablet", fname}, {"status", why}});
  readers_.erase(fname);
  std::vector<TabletMeta> keep;
  keep.reserve(tablets_.size());
  for (TabletMeta& m : tablets_) {
    if (m.filename != fname) keep.push_back(std::move(m));
  }
  tablets_ = std::move(keep);
  if (env_->FileExists(path)) env_->RenameFile(path, path + ".corrupt");
  stats_.tablets_quarantined.fetch_add(1);
  // Persist the drop so the next open doesn't trip over the same tablet.
  // If this write fails, reopening just quarantines again.
  Status s = SaveDescriptorLocked();
  if (!s.ok()) {
    opts_.logger->Error(
        "quarantine_descriptor_update_failed",
        {{"table", name_}, {"tablet", fname}, {"status", s}});
  }
}

Status Table::SaveDescriptorLocked() { return SaveDescriptorWithLocked(tablets_); }

Status Table::SaveDescriptorWithLocked(const std::vector<TabletMeta>& tablets) {
  TableDescriptor desc;
  desc.table_name = name_;
  desc.schema = *schema_;
  desc.ttl = ttl_;
  desc.next_file_seq = next_file_seq_;
  desc.tablets = tablets;
  return desc.Save(env_, DescriptorPath());
}

// ---------------------------------------------------------------------------
// Replication hooks: whole-tablet export/install for primary→secondary
// shipping (flushed tablets are immutable, so a byte copy is a valid
// replica of the tablet).

namespace {
// Parses the numeric prefix of a tablet filename ("000042.tab" → 42);
// returns 0 if the name has no digit prefix.
uint64_t TabletSeqOf(const std::string& fname) {
  uint64_t seq = 0;
  for (char c : fname) {
    if (c < '0' || c > '9') break;
    seq = seq * 10 + static_cast<uint64_t>(c - '0');
  }
  return seq;
}

bool SameTablet(const TabletMeta& a, const TabletMeta& b) {
  return a.filename == b.filename && a.file_bytes == b.file_bytes &&
         a.row_count == b.row_count;
}
}  // namespace

Status Table::ExportTablet(const std::string& filename, TabletMeta* meta,
                           std::string* bytes) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    bool found = false;
    for (const TabletMeta& m : tablets_) {
      if (m.filename == filename) {
        *meta = m;
        found = true;
        break;
      }
    }
    if (!found) return Status::NotFound("no such tablet: " + filename);
  }
  LT_RETURN_IF_ERROR(ReadFileToString(env_, TabletPath(filename), bytes));
  if (bytes->size() != meta->file_bytes) {
    // Tablets never change size once flushed; a mismatch means the file
    // was replaced under us (merge) — the caller should re-list and retry.
    return Status::NotFound("tablet replaced mid-export: " + filename);
  }
  return Status::OK();
}

Status Table::InstallTablet(const TabletMeta& meta, const Slice& bytes) {
  if (meta.filename.empty() || meta.filename == "DESC" ||
      meta.filename.find('/') != std::string::npos) {
    return Status::InvalidArgument("bad tablet filename");
  }
  if (bytes.size() != meta.file_bytes) {
    return Status::InvalidArgument("tablet size does not match meta");
  }
  std::lock_guard<std::mutex> flush_lock(flush_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const TabletMeta& m : tablets_) {
      if (m.filename != meta.filename) continue;
      if (SameTablet(m, meta)) return Status::OK();  // Duplicate ship.
      // Same name, different contents: a divergent-history rejoin. Drop
      // the old entry durably BEFORE the file is overwritten, so a crash
      // in between leaves an orphan (removed at Open), never a descriptor
      // naming bytes it doesn't describe.
      std::vector<TabletMeta> next;
      next.reserve(tablets_.size() - 1);
      for (const TabletMeta& t : tablets_) {
        if (t.filename != meta.filename) next.push_back(t);
      }
      LT_RETURN_IF_ERROR(SaveDescriptorWithLocked(next));
      readers_.erase(meta.filename);
      tablets_ = std::move(next);
      break;
    }
  }
  const std::string path = TabletPath(meta.filename);
  const std::string tmp = path + ".ship";
  std::unique_ptr<WritableFile> f;
  LT_RETURN_IF_ERROR(env_->NewWritableFile(tmp, &f));
  Status s = f->Append(bytes);
  if (s.ok()) s = f->Sync();
  if (s.ok()) s = f->Close();
  if (s.ok()) s = env_->RenameFile(tmp, path);
  if (!s.ok()) {
    env_->RemoveFile(tmp);
    return s;
  }
  // Validate before committing: the bytes must load as a real tablet, so
  // a torn or corrupted transfer that slipped past the wire checksum can
  // never enter the descriptor.
  std::shared_ptr<TabletReader> reader;
  s = TabletReader::Open(env_, path, &reader, opts_.block_cache, &stats_);
  if (s.ok()) s = reader->Load();
  if (!s.ok()) {
    env_->RemoveFile(path);
    return s;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<TabletMeta> next = tablets_;
    next.push_back(meta);
    SortMetas(&next);
    // Local flushes must never collide with shipped names: advance the
    // sequence counter past the installed file's.
    const uint64_t seq = TabletSeqOf(meta.filename);
    const uint64_t prev_seq = next_file_seq_;
    if (seq >= next_file_seq_) next_file_seq_ = seq + 1;
    Status cs = SaveDescriptorWithLocked(next);
    if (!cs.ok()) {
      next_file_seq_ = prev_seq;
      env_->RemoveFile(path);
      return cs;
    }
    readers_[meta.filename] = std::move(reader);
    tablets_ = std::move(next);
    if (meta.row_count > 0) {
      if (!has_rows_ || meta.max_ts > max_row_ts_) max_row_ts_ = meta.max_ts;
      has_rows_ = true;
    }
  }
  return Status::OK();
}

Status Table::RetainOnlyTablets(const std::vector<TabletMeta>& keep) {
  std::lock_guard<std::mutex> flush_lock(flush_mu_);
  std::lock_guard<std::mutex> lock(mu_);
  auto keeps = [&](const TabletMeta& m) {
    for (const TabletMeta& k : keep) {
      if (SameTablet(k, m)) return true;
    }
    return false;
  };
  std::vector<TabletMeta> next;
  std::vector<std::string> drop;
  next.reserve(tablets_.size());
  for (const TabletMeta& m : tablets_) {
    if (keeps(m)) {
      next.push_back(m);
    } else {
      drop.push_back(m.filename);
    }
  }
  if (drop.empty()) return Status::OK();
  // Commit the prune durably first; files are unreferenced afterwards, so
  // a crash between descriptor and removal just leaves orphans for Open.
  LT_RETURN_IF_ERROR(SaveDescriptorWithLocked(next));
  for (const std::string& fname : drop) {
    readers_.erase(fname);
    env_->RemoveFile(TabletPath(fname));
  }
  tablets_ = std::move(next);
  return Status::OK();
}

void Table::DiscardMem() {
  std::lock_guard<std::mutex> flush_lock(flush_mu_);
  std::lock_guard<std::mutex> lock(mu_);
  filling_.clear();
  sealed_.clear();
  must_flush_first_.clear();
  last_insert_tablet_ = 0;
  flush_backoff_until_ = 0;
  flush_failure_streak_ = 0;
}

void Table::RecordFlushFailureLocked(Timestamp now) {
  stats_.flush_failures.fetch_add(1);
  Timestamp delay = opts_.flush_retry_backoff;
  for (uint32_t i = 0; i < flush_failure_streak_ &&
                       delay < opts_.flush_retry_max_backoff;
       i++) {
    delay *= 2;
  }
  delay = std::min(delay, opts_.flush_retry_max_backoff);
  flush_backoff_until_ = now + delay;
  flush_failure_streak_++;
}

void Table::RecordMergeFailureLocked(Timestamp now) {
  stats_.merge_failures.fetch_add(1);
  Timestamp delay = opts_.flush_retry_backoff;
  for (uint32_t i = 0; i < merge_failure_streak_ &&
                       delay < opts_.flush_retry_max_backoff;
       i++) {
    delay *= 2;
  }
  delay = std::min(delay, opts_.flush_retry_max_backoff);
  merge_backoff_until_ = now + delay;
  merge_failure_streak_++;
}

// ---------------------------------------------------------------------------
// Inserts.

Status Table::CheckUnique(const Row& row,
                          const std::set<std::string>& batch_keys) {
  std::shared_ptr<const Schema> schema;
  std::vector<std::shared_ptr<TabletReader>> candidates;
  Key full_key;
  {
    std::lock_guard<std::mutex> lock(mu_);
    schema = schema_;
    full_key = schema->KeyOf(row);
    std::string enc;
    EncodeKey(&enc, *schema, full_key);
    if (batch_keys.count(enc)) {
      stats_.duplicates_rejected.fetch_add(1);
      return Status::AlreadyExists("duplicate key within batch");
    }
    Timestamp ts = row[schema->ts_index()].AsInt();
    // Fast path 1 (§3.4.4): newer than every existing row — provable from
    // cached metadata alone. Common because most applications timestamp
    // rows with the current time.
    if (!has_rows_ || ts > max_row_ts_) {
      stats_.unique_by_newest_ts.fetch_add(1);
      return Status::OK();
    }
    // In-memory tablets: exact, cheap checks.
    auto check_mem = [&](const std::shared_ptr<MemTablet>& mt) -> bool {
      return !mt->empty() && mt->min_ts() <= ts && ts <= mt->max_ts() &&
             mt->ContainsKey(row);
    };
    bool in_mem = false;
    ForEachMemTabletLocked([&](const std::shared_ptr<MemTablet>& mt) {
      in_mem = in_mem || check_mem(mt);
    });
    if (in_mem) {
      stats_.duplicates_rejected.fetch_add(1);
      return Status::AlreadyExists("duplicate key");
    }
    // Fast path 2: within the row's time period, larger than every
    // tablet's max key — provable from cached indexes alone. A duplicate
    // shares the full key including ts, so only tablets whose timespan
    // contains ts can hold one.
    std::vector<std::pair<std::string, Status>> doomed;
    for (const TabletMeta& m : tablets_) {
      if (m.row_count == 0 || ts < m.min_ts || ts > m.max_ts) continue;
      auto it = readers_.find(m.filename);
      if (it == readers_.end()) {
        return Status::Aborted("internal: no reader for tablet " + m.filename);
      }
      Status ls = it->second->Load();
      if (!ls.ok()) {
        if (!ShouldQuarantine(ls)) return ls;
        // The tablet is unreadable, so it cannot hold a duplicate; drop it
        // from the table and keep checking the rest.
        doomed.emplace_back(m.filename, std::move(ls));
        continue;
      }
      int c = CompareFullKeys(*schema, it->second->max_key(), full_key);
      if (c == 0) {
        stats_.duplicates_rejected.fetch_add(1);
        return Status::AlreadyExists("duplicate key");
      }
      if (c > 0) candidates.push_back(it->second);
    }
    for (const auto& [fname, why] : doomed) QuarantineTabletLocked(fname, why);
    if (candidates.empty()) {
      stats_.unique_by_max_key.fetch_add(1);
      return Status::OK();
    }
  }
  // Slow path: point queries, outside mu_ so concurrent queries proceed
  // unencumbered (the paper's in-memory lock table is our insert_mu_, held
  // by the caller).
  for (const auto& reader : candidates) {
    stats_.bloom_tablet_probes.fetch_add(1);
    if (!reader->MayContainPrefix(full_key)) {
      stats_.bloom_tablet_skips.fetch_add(1);
      continue;
    }
    QueryBounds bounds = QueryBounds::ForPrefix(full_key);
    std::unique_ptr<Cursor> cursor;
    LT_RETURN_IF_ERROR(
        reader->NewCursor(bounds, schema.get(), nullptr, &cursor));
    if (cursor->Valid()) {
      stats_.duplicates_rejected.fetch_add(1);
      return Status::AlreadyExists("duplicate key");
    }
  }
  stats_.unique_by_point_query.fetch_add(1);
  return Status::OK();
}

void Table::SealLocked(std::shared_ptr<MemTablet> mt) {
  mt->Seal();
  auto it = filling_.find(mt->period().start);
  if (it != filling_.end() && it->second == mt) filling_.erase(it);
  sealed_.push_back(std::move(mt));
}

namespace {
// Group-commit bound: a leader stops claiming followers once the group
// holds this many rows, keeping the critical section (and any follower's
// worst-case wait) proportionate.
constexpr size_t kMaxInsertGroupRows = 65536;
}  // namespace

Status Table::InsertBatch(const std::vector<Row>& rows) {
  if (rows.empty()) return Status::OK();
  const Timestamp op_start = MonotonicMicros();

  // Group commit: enqueue, then either wait for a leader to carry this
  // batch or become the leader at the queue front. Latency is recorded per
  // caller — a follower's wait is part of its user-visible insert time.
  InsertWaiter me(&rows);
  std::unique_lock<std::mutex> lock(writers_mu_);
  writers_.push_back(&me);
  while (!me.done && &me != writers_.front()) {
    me.cv.wait(lock);
  }
  if (me.done) {
    lock.unlock();
    stats_.insert_micros.Record(
        static_cast<uint64_t>(MonotonicMicros() - op_start));
    return me.status;
  }

  // Leader: claim a bounded prefix of the queue as this commit group.
  std::vector<InsertWaiter*> group;
  size_t group_rows = 0;
  for (InsertWaiter* w : writers_) {
    if (!group.empty() && group_rows + w->rows->size() > kMaxInsertGroupRows) {
      break;
    }
    group.push_back(w);
    group_rows += w->rows->size();
  }
  lock.unlock();

  RunInsertGroup(group);

  lock.lock();
  for (InsertWaiter* w : group) {
    writers_.pop_front();
    w->done = true;
    if (w != &me) w->cv.notify_one();
  }
  // Promote the next queued writer to leader.
  if (!writers_.empty()) writers_.front()->cv.notify_one();
  lock.unlock();

  stats_.insert_micros.Record(
      static_cast<uint64_t>(MonotonicMicros() - op_start));
  return me.status;
}

void Table::RunInsertGroup(const std::vector<InsertWaiter*>& group) {
  std::lock_guard<std::mutex> insert_lock(insert_mu_);
  stats_.insert_groups.fetch_add(1);
  stats_.insert_group_size.Record(group.size());

  // While flushes are failing, memory absorbs inserts past the normal
  // backpressure threshold — but only up to a hard cap, rejected here
  // *before* any row applies so each caller sees a clean all-or-nothing.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (sealed_.size() >= HardSealedCapLocked() &&
        clock_->Now() < flush_backoff_until_) {
      Status reject = Status::Unavailable(
          "too many unflushed tablets while flushes are failing");
      for (InsertWaiter* w : group) w->status = reject;
      return;
    }
  }

  std::shared_ptr<const Schema> schema = this->schema();

  // Validate and uniqueness-check each batch independently. group_keys
  // accumulates the keys of batches already accepted in this group: they
  // are not yet in any memtablet, so CheckUnique's fast paths cannot see
  // them, and a cross-batch duplicate must be caught here exactly as it
  // would have been had the batches run serially (earlier queue position
  // wins). A rejected batch's keys are rolled back so it cannot shadow a
  // later batch.
  std::set<std::string> group_keys;
  std::vector<InsertWaiter*> accepted;
  size_t accepted_rows = 0;
  for (InsertWaiter* w : group) {
    Status s;
    for (const Row& r : *w->rows) {
      if (!schema->RowMatches(r)) {
        s = Status::InvalidArgument("row does not match table schema");
        break;
      }
    }
    std::vector<std::string> added;
    if (s.ok()) {
      for (const Row& r : *w->rows) {
        s = CheckUnique(r, group_keys);
        if (!s.ok()) break;
        std::string enc;
        EncodeKey(&enc, *schema, schema->KeyOf(r));
        if (group_keys.insert(enc).second) added.push_back(std::move(enc));
      }
    }
    w->status = s;
    if (s.ok()) {
      accepted.push_back(w);
      accepted_rows += w->rows->size();
    } else {
      for (const std::string& enc : added) group_keys.erase(enc);
    }
  }

  if (!accepted.empty()) {
    // One mu_ critical section applies every accepted batch, in queue
    // order — the coalescing that turns many small device batches into
    // amortized work.
    std::lock_guard<std::mutex> lock(mu_);
    const Timestamp now = clock_->Now();
    for (InsertWaiter* w : accepted) {
      for (const Row& r : *w->rows) {
        Timestamp ts = r[schema->ts_index()].AsInt();
        Period p = PeriodFor(ts, now);
        std::shared_ptr<MemTablet> mt;
        auto it = filling_.find(p.start);
        if (it != filling_.end() && it->second->period() == p) {
          mt = it->second;
        } else {
          // Missing, or a stale tablet whose period has since rolled over
          // into a larger bin sharing the same start: seal the stale one.
          if (it != filling_.end()) SealLocked(it->second);
          mt = std::make_shared<MemTablet>(next_memtablet_id_++, schema_, p,
                                           now);
          filling_[p.start] = mt;
        }
        if (!mt->Insert(r)) {
          w->status = Status::Aborted("uniqueness race despite insert lock");
          break;
        }
        // Flush dependency (§3.4.3): switching filling tablets means the
        // previous one holds earlier rows and must flush first (or with
        // us).
        if (last_insert_tablet_ != 0 && last_insert_tablet_ != mt->id()) {
          must_flush_first_[mt->id()].insert(last_insert_tablet_);
        }
        last_insert_tablet_ = mt->id();
        if (!has_rows_ || ts > max_row_ts_) max_row_ts_ = ts;
        has_rows_ = true;
        if (mt->ApproximateBytes() >= opts_.flush_bytes) SealLocked(mt);
      }
      if (w->status.ok()) {
        stats_.insert_batches.fetch_add(1);
        stats_.rows_inserted.fetch_add(w->rows->size());
      }
    }
  }

  // Backpressure: once too many sealed tablets await flushing, the insert
  // path does the flushing itself and becomes disk-bound (§5.1.3) — one
  // pass for the whole group. During a failure backoff window the flush is
  // skipped: the rows are already applied and served from memory;
  // maintenance retries the flush later.
  while (true) {
    uint64_t root = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closing_) break;  // Shutdown's FlushAll will persist these rows.
      if (sealed_.size() <= opts_.max_unflushed_tablets) break;
      if (clock_->Now() < flush_backoff_until_) break;
      root = sealed_.front()->id();
    }
    if (!FlushSet({root}).ok()) break;
  }
}

// ---------------------------------------------------------------------------
// Flushing.

Status Table::FlushSet(std::vector<uint64_t> root_ids) {
  const Timestamp op_start = MonotonicMicros();
  std::lock_guard<std::mutex> flush_lock(flush_mu_);
  std::vector<std::shared_ptr<MemTablet>> victims;
  bool is_retry = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    is_retry = flush_failure_streak_ > 0;
    // Transitive closure over the dependency graph (which may have cycles).
    std::set<uint64_t> want(root_ids.begin(), root_ids.end());
    std::deque<uint64_t> work(root_ids.begin(), root_ids.end());
    while (!work.empty()) {
      uint64_t id = work.front();
      work.pop_front();
      auto it = must_flush_first_.find(id);
      if (it == must_flush_first_.end()) continue;
      for (uint64_t dep : it->second) {
        if (want.insert(dep).second) work.push_back(dep);
      }
    }
    for (auto it = filling_.begin(); it != filling_.end();) {
      if (want.count(it->second->id())) {
        it->second->Seal();
        victims.push_back(it->second);
        it = filling_.erase(it);
      } else {
        ++it;
      }
    }
    for (auto it = sealed_.begin(); it != sealed_.end();) {
      if (want.count((*it)->id())) {
        victims.push_back(*it);
        it = sealed_.erase(it);
      } else {
        ++it;
      }
    }
    // Until the commit below, queries keep reading the victims' rows from
    // memory: their tablets are not in tablets_ yet.
    flushing_ = victims;
  }
  if (victims.empty()) return Status::OK();
  if (is_retry) stats_.flush_retries.fetch_add(1);
  std::sort(victims.begin(), victims.end(),
            [](const auto& a, const auto& b) { return a->id() < b->id(); });

  const Timestamp now = clock_->Now();

  // Write one tablet per non-empty victim, in id order. Id order is only a
  // heuristic: InsertBatch adds an edge from the current filling tablet to
  // the previous one, so inserts alternating between period tablets create
  // edges from an OLDER id to a NEWER one (even cycles). On a write failure
  // the candidate prefix is therefore trimmed below — under mu_, against
  // the real edge set — until it is dependency-closed before anything
  // commits; the failed victim and everything dropped by the trim return to
  // the flush queue, sealed and intact, for a backed-off retry. No victim
  // is ever stranded or dropped.
  struct Written {
    size_t vi;  // Index into `victims`.
    TabletMeta meta;
    std::shared_ptr<TabletReader> reader;
  };
  std::vector<Written> written;
  size_t committed_victims = victims.size();  // victims[0..this) commit.
  Status fail;
  for (size_t vi = 0; vi < victims.size(); vi++) {
    const std::shared_ptr<MemTablet>& mt = victims[vi];
    if (mt->empty()) continue;
    std::string fname;
    {
      std::lock_guard<std::mutex> lock(mu_);
      fname = TabletFileName(next_file_seq_++);
    }
    TabletWriterOptions wopts;
    wopts.block_bytes = opts_.block_bytes;
    wopts.bloom_bits_per_key = opts_.bloom_bits_per_key;
    wopts.sync = true;
    wopts.format_version = opts_.format_version;
    wopts.stats = &stats_;
    TabletWriter writer(env_, TabletPath(fname), mt->schema().get(), wopts);
    Status s;
    for (const Row& r : mt->AllRows()) {
      s = writer.Add(r);
      if (!s.ok()) break;
    }
    TabletMeta meta;
    if (s.ok()) s = writer.Finish(&meta);
    if (!s.ok()) {
      writer.Abandon();  // The partial output file is deleted.
      fail = s;
      committed_victims = vi;
      break;
    }
    meta.filename = fname;
    meta.flushed_at = now;
    std::shared_ptr<TabletReader> reader;
    s = TabletReader::Open(env_, TabletPath(fname), &reader,
                           opts_.block_cache, &stats_);
    if (!s.ok()) {
      env_->RemoveFile(TabletPath(fname));
      fail = s;
      committed_victims = vi;
      break;
    }
    written.push_back({vi, std::move(meta), std::move(reader)});
  }

  size_t committed_count = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // commit[vi] — does victims[vi] commit this round? Start from the
    // written prefix, then trim it until it is closed under the real
    // dependency edges: a victim whose must-flush-first set names a
    // requeued victim must itself be requeued, transitively (id order does
    // not imply closure — see the write-loop comment above). Committing a
    // non-closed set would durably persist a tablet whose earlier-inserted
    // dependency is still memory-only, breaking §3.4.3 prefix durability
    // on the next crash.
    std::vector<char> commit(victims.size(), 1);
    for (size_t vi = committed_victims; vi < victims.size(); vi++) {
      commit[vi] = 0;
    }
    if (committed_victims < victims.size()) {
      std::map<uint64_t, size_t> index_of;
      for (size_t vi = 0; vi < victims.size(); vi++) {
        index_of[victims[vi]->id()] = vi;
      }
      bool changed = true;
      while (changed) {
        changed = false;
        for (size_t vi = 0; vi < victims.size(); vi++) {
          if (!commit[vi]) continue;
          auto dep_it = must_flush_first_.find(victims[vi]->id());
          if (dep_it == must_flush_first_.end()) continue;
          for (uint64_t dep : dep_it->second) {
            auto ix = index_of.find(dep);
            if (ix != index_of.end() && !commit[ix->second]) {
              commit[vi] = 0;
              changed = true;
              break;
            }
          }
        }
      }
      // Output already written for trimmed victims must not reach the
      // descriptor: delete it so the retry rewrites it cleanly.
      for (auto it = written.begin(); it != written.end();) {
        if (!commit[it->vi]) {
          env_->RemoveFile(TabletPath(it->meta.filename));
          it = written.erase(it);
        } else {
          ++it;
        }
      }
    }
    // Every victim leaves flushing_ in this section, swapped for its
    // tablet or requeued below, so a query sees each row exactly once.
    flushing_.clear();
    if (!written.empty()) {
      // One atomic descriptor update covers the committed set (§3.4.3).
      // Commit durably first, then mutate in-memory state, so a descriptor
      // failure rolls back to exactly the pre-flush picture.
      std::vector<TabletMeta> next_tablets = tablets_;
      for (const Written& w : written) next_tablets.push_back(w.meta);
      SortMetas(&next_tablets);
      Status cs = SaveDescriptorWithLocked(next_tablets);
      if (!cs.ok()) {
        // The old descriptor still rules: delete the unreferenced tablet
        // files and requeue every victim so the retry rewrites cleanly.
        for (const Written& w : written) {
          env_->RemoveFile(TabletPath(w.meta.filename));
        }
        written.clear();
        std::fill(commit.begin(), commit.end(), 0);
        if (fail.ok()) fail = cs;
      } else {
        for (Written& w : written) {
          stats_.flushes.fetch_add(1);
          stats_.bytes_flushed.fetch_add(w.meta.file_bytes);
          readers_[w.meta.filename] = std::move(w.reader);
          tablets_.push_back(std::move(w.meta));
        }
        SortMetas(&tablets_);
      }
    } else if (!fail.ok()) {
      // Nothing reached disk: requeue everything (empty victims included)
      // and leave the dependency graph untouched.
      std::fill(commit.begin(), commit.end(), 0);
    }
    // Committed victims leave the dependency graph entirely — including
    // edges that name them from still-queued tablets, which are satisfied
    // now that the dependency is durable. (Erasing only the victims' own
    // entries leaked those satisfied edges forever.)
    std::set<uint64_t> committed_ids;
    for (size_t vi = 0; vi < victims.size(); vi++) {
      if (commit[vi]) committed_ids.insert(victims[vi]->id());
    }
    for (uint64_t id : committed_ids) must_flush_first_.erase(id);
    for (auto it = must_flush_first_.begin(); it != must_flush_first_.end();) {
      for (uint64_t id : committed_ids) it->second.erase(id);
      it = it->second.empty() ? must_flush_first_.erase(it) : std::next(it);
    }
    // Unflushed victims return to the front of the flush queue (reverse id
    // order keeps the oldest first); their rows stay served from memory.
    for (size_t vi = victims.size(); vi-- > 0;) {
      if (!commit[vi]) sealed_.push_front(victims[vi]);
    }
    committed_count = committed_ids.size();
    if (!fail.ok()) {
      RecordFlushFailureLocked(clock_->Now());
    } else {
      flush_failure_streak_ = 0;
      flush_backoff_until_ = 0;
    }
  }
  if (!fail.ok()) {
    opts_.logger->Warn(
        "flush_failed",
        {{"table", name_},
         {"committed", static_cast<uint64_t>(committed_count)},
         {"requeued",
          static_cast<uint64_t>(victims.size() - committed_count)},
         {"status", fail}});
    return fail;
  }
  LT_CRASH_POINT("flush:after_commit");
  stats_.flush_micros.Record(
      static_cast<uint64_t>(MonotonicMicros() - op_start));
  return Status::OK();
}

Status Table::FlushAll() {
  std::vector<uint64_t> roots;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ForEachMemTabletLocked([&](const std::shared_ptr<MemTablet>& mt) {
      roots.push_back(mt->id());
    });
  }
  if (roots.empty()) return Status::OK();
  return FlushSet(std::move(roots));
}

Status Table::FlushThrough(Timestamp ts) {
  std::vector<uint64_t> roots;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A mid-flush victim is a root too: should that flush fail and requeue
    // it, this call must still persist it before reporting success.
    ForEachMemTabletLocked([&](const std::shared_ptr<MemTablet>& mt) {
      if (!mt->empty() && mt->min_ts() <= ts) roots.push_back(mt->id());
    });
  }
  if (roots.empty()) return Status::OK();
  return FlushSet(std::move(roots));
}

// ---------------------------------------------------------------------------
// Maintenance: age-based flushing, merging, TTL.

void Table::BeginShutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  closing_ = true;
  // A pending retry backoff must not delay shutdown: the close-time flush
  // is the last chance to persist, so it runs immediately.
  flush_backoff_until_ = 0;
  merge_backoff_until_ = 0;
}

Status Table::MaintainNow() {
  const Timestamp now = clock_->Now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closing_) return Status::OK();  // Shutdown owns the final flush.
    std::vector<std::shared_ptr<MemTablet>> aged;
    for (const auto& [start, mt] : filling_) {
      if (now - mt->created_at() >= opts_.max_memtablet_age) aged.push_back(mt);
    }
    for (const auto& mt : aged) SealLocked(mt);
  }
  Status flush_status;
  while (true) {
    uint64_t root = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closing_) break;
      if (sealed_.empty()) break;
      if (clock_->Now() < flush_backoff_until_) break;  // Retry later.
      root = sealed_.front()->id();
    }
    flush_status = FlushSet({root});
    if (!flush_status.ok()) break;
  }
  // A failed flush must not starve the rest of maintenance: merging and TTL
  // reclamation still run (reclamation in particular frees the disk space a
  // full disk needs before the flush retry can succeed).
  Status merge_status = MaybeMerge(now);
  Status ttl_status;
  if (ttl() > 0) ttl_status = ReclaimExpired(now);
  LT_RETURN_IF_ERROR(flush_status);
  LT_RETURN_IF_ERROR(merge_status);
  return ttl_status;
}

bool Table::HasMaintenanceWork() {
  const Timestamp now = clock_->Now();
  std::lock_guard<std::mutex> lock(mu_);
  if (!sealed_.empty()) return true;
  for (const auto& [start, mt] : filling_) {
    if (now - mt->created_at() >= opts_.max_memtablet_age) return true;
  }
  if (PickMerge(tablets_, now, name_, opts_.merge).valid()) return true;
  if (ttl_ > 0) {
    Timestamp cutoff = ExpiryCutoffLocked(now);
    for (const TabletMeta& m : tablets_) {
      if (m.max_ts < cutoff) return true;
    }
  }
  return false;
}

Status Table::MaybeMerge(Timestamp now) {
  const Timestamp op_start = MonotonicMicros();
  std::lock_guard<std::mutex> merge_lock(merge_mu_);
  std::vector<TabletMeta> inputs;
  std::vector<std::shared_ptr<TabletReader>> input_readers;
  std::shared_ptr<const Schema> schema;
  Timestamp cutoff;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closing_) return Status::OK();
    if (now < merge_backoff_until_) return Status::OK();  // Retry later.
    MergePick pick = PickMerge(tablets_, now, name_, opts_.merge);
    if (!pick.valid()) return Status::OK();
    for (size_t i = pick.begin; i < pick.end; i++) {
      auto it = readers_.find(tablets_[i].filename);
      if (it == readers_.end()) {
        return Status::Aborted("merge input reader missing");
      }
      inputs.push_back(tablets_[i]);
      input_readers.push_back(it->second);
    }
    schema = schema_;
    cutoff = ExpiryCutoffLocked(now);
  }

  std::string fname;
  {
    std::lock_guard<std::mutex> lock(mu_);
    fname = TabletFileName(next_file_seq_++);
  }
  TabletWriterOptions wopts;
  wopts.block_bytes = opts_.block_bytes;
  wopts.bloom_bits_per_key = opts_.bloom_bits_per_key;
  wopts.sync = true;
  // Merges always rewrite at the latest format: they are the upgrade path
  // that converges a mixed-version table onto columnar blocks over time.
  wopts.format_version = kTabletFormatLatest;
  wopts.stats = &stats_;
  TabletWriter writer(env_, TabletPath(fname), schema.get(), wopts);

  // Single-pass merge-sort of the inputs (§3.4.1). Rows already past the
  // TTL are dropped rather than rewritten.
  std::vector<std::unique_ptr<Cursor>> cursors;
  QueryBounds everything;
  for (size_t i = 0; i < input_readers.size(); i++) {
    std::unique_ptr<Cursor> c;
    Status s = input_readers[i]->NewCursor(everything, schema.get(), nullptr,
                                           &c);
    if (!s.ok()) {
      writer.Abandon();
      if (ShouldQuarantine(s)) {
        // An unreadable input must not wedge maintenance forever: quarantine
        // it and report success; the next pass re-picks without it.
        std::lock_guard<std::mutex> lock(mu_);
        QuarantineTabletLocked(inputs[i].filename, s);
        return Status::OK();
      }
      std::lock_guard<std::mutex> lock(mu_);
      RecordMergeFailureLocked(clock_->Now());
      return s;
    }
    cursors.push_back(std::move(c));
  }
  // Any failure from here on abandons the partial output, backs off, and
  // leaves the inputs untouched: a merge is pure rewrite, so failing it
  // loses nothing — the next attempt re-picks the same inputs.
  MergingCursor merged(schema.get(), std::move(cursors), Direction::kAscending);
  Status ws;
  Row row;
  while (merged.Valid()) {
    if (merged.key()[schema->ts_index()].AsInt() >= cutoff) {
      ws = merged.ReadRow(&row);
      if (!ws.ok()) break;
      ws = writer.Add(row);
      if (!ws.ok()) break;
    }
    ws = merged.Next();
    if (!ws.ok()) break;
  }

  TabletMeta out_meta;
  bool have_output = ws.ok() && writer.rows_added() > 0;
  if (have_output) {
    ws = writer.Finish(&out_meta);
    out_meta.filename = fname;
    out_meta.flushed_at = now;
  }
  if (!ws.ok() || !have_output) writer.Abandon();
  if (!ws.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    RecordMergeFailureLocked(clock_->Now());
    return ws;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    // Commit durably before mutating in-memory state: open the output
    // reader and write the descriptor first, so a failure at either step
    // rolls back to exactly the pre-merge picture (inputs still live).
    std::shared_ptr<TabletReader> out_reader;
    if (have_output) {
      Status s = TabletReader::Open(env_, TabletPath(fname), &out_reader,
                                    opts_.block_cache, &stats_);
      if (!s.ok()) {
        env_->RemoveFile(TabletPath(fname));
        RecordMergeFailureLocked(clock_->Now());
        return s;
      }
    }
    std::set<std::string> gone;
    for (const TabletMeta& m : inputs) gone.insert(m.filename);
    std::vector<TabletMeta> next;
    next.reserve(tablets_.size());
    for (const TabletMeta& m : tablets_) {
      if (!gone.count(m.filename)) next.push_back(m);
    }
    if (have_output) next.push_back(out_meta);
    SortMetas(&next);
    Status s = SaveDescriptorWithLocked(next);
    if (!s.ok()) {
      if (have_output) env_->RemoveFile(TabletPath(fname));
      RecordMergeFailureLocked(clock_->Now());
      return s;
    }
    tablets_ = std::move(next);
    if (have_output) readers_[fname] = std::move(out_reader);
    for (const std::string& f : gone) readers_.erase(f);
    stats_.merges.fetch_add(1);
    stats_.tablets_merged.fetch_add(inputs.size());
    if (have_output) stats_.bytes_merge_written.fetch_add(out_meta.file_bytes);
    merge_failure_streak_ = 0;
    merge_backoff_until_ = 0;
  }
  // The descriptor no longer references the inputs; a crash here merely
  // leaves orphaned files that the next Open sweeps away.
  LT_CRASH_POINT("merge:after_commit");
  for (const TabletMeta& m : inputs) env_->RemoveFile(TabletPath(m.filename));
  stats_.merge_micros.Record(
      static_cast<uint64_t>(MonotonicMicros() - op_start));
  return Status::OK();
}

Status Table::ReclaimExpired(Timestamp now) {
  std::vector<std::string> doomed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Timestamp cutoff = ExpiryCutoffLocked(now);
    for (const TabletMeta& m : tablets_) {
      if (m.max_ts < cutoff) doomed.push_back(m.filename);
    }
    if (doomed.empty()) return Status::OK();
    std::vector<TabletMeta> keep;
    keep.reserve(tablets_.size() - doomed.size());
    for (TabletMeta& m : tablets_) {
      if (m.max_ts >= cutoff) keep.push_back(std::move(m));
    }
    tablets_ = std::move(keep);
    LT_RETURN_IF_ERROR(SaveDescriptorLocked());
    for (const std::string& f : doomed) readers_.erase(f);
    stats_.tablets_expired.fetch_add(doomed.size());
  }
  for (const std::string& f : doomed) env_->RemoveFile(TabletPath(f));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Queries.

Status Table::NewQueryStream(const QueryBounds& user_bounds,
                             std::unique_ptr<QueryStream>* out,
                             QueryTrace* trace) {
  out->reset();
  stats_.queries.fetch_add(1);

  std::unique_ptr<QueryStream> qs(new QueryStream());
  qs->table_ = this;
  // Trace even when the caller doesn't ask for one: the slow-query log
  // needs the counts.
  qs->trace_ = trace != nullptr ? trace : &qs->local_trace_;
  QueryTrace* tr = qs->trace_;
  qs->op_start_ = MonotonicMicros();

  const Timestamp now = clock_->Now();
  QueryBounds bounds = user_bounds;

  std::shared_ptr<const Schema> schema;
  {
    std::lock_guard<std::mutex> lock(mu_);
    schema = schema_;
  }
  for (uint32_t c : bounds.projection) {
    if (c >= schema->num_columns()) {
      return Status::InvalidArgument("projection column index out of range");
    }
  }
  std::vector<std::shared_ptr<TabletReader>> disk;
  std::vector<std::vector<Row>> mem_snapshots;
  {
    std::lock_guard<std::mutex> lock(mu_);
    schema = schema_;
    // TTL is just a tighter lower timestamp bound (§3.3).
    Timestamp cutoff = ExpiryCutoffLocked(now);
    if (cutoff > bounds.min_ts) {
      bounds.min_ts = cutoff;
      bounds.min_ts_inclusive = true;
    }
    std::vector<std::pair<std::string, Status>> doomed;
    for (const TabletMeta& m : tablets_) {
      tr->tablets_considered++;
      if (!bounds.TsOverlaps(m.min_ts, m.max_ts)) {
        tr->tablets_pruned_time++;
        continue;
      }
      auto it = readers_.find(m.filename);
      if (it == readers_.end()) {
        return Status::Aborted("internal: no reader for tablet " + m.filename);
      }
      const auto& reader = it->second;
      Status ls = reader->Load();
      if (!ls.ok()) {
        if (!ShouldQuarantine(ls)) return ls;
        // Unreadable tablet: quarantine it and serve the rest (§2.3.4 —
        // persisted data stays recoverable; one bad file must not take the
        // whole table down).
        doomed.emplace_back(m.filename, std::move(ls));
        continue;
      }
      if (reader->row_count() == 0) continue;
      // Key-range pruning from cached footer min/max keys.
      if (bounds.min_key) {
        int c = schema->CompareKeyToPrefix(reader->max_key(),
                                           bounds.min_key->prefix);
        if (bounds.min_key->inclusive ? c < 0 : c <= 0) {
          tr->tablets_pruned_key++;
          continue;
        }
      }
      if (bounds.max_key) {
        int c = schema->CompareKeyToPrefix(reader->min_key(),
                                           bounds.max_key->prefix);
        if (bounds.max_key->inclusive ? c > 0 : c >= 0) {
          tr->tablets_pruned_key++;
          continue;
        }
      }
      disk.push_back(reader);
    }
    auto snap = [&](const std::shared_ptr<MemTablet>& mt) {
      if (mt->empty()) return;
      if (!bounds.TsOverlaps(mt->min_ts(), mt->max_ts())) return;
      std::vector<Row> rows;
      mt->Snapshot(bounds, &rows);
      if (!rows.empty()) mem_snapshots.push_back(std::move(rows));
    };
    ForEachMemTabletLocked(snap);
    for (const auto& [fname, why] : doomed) QuarantineTabletLocked(fname, why);
  }

  uint64_t limit = opts_.server_row_limit > 0
                       ? opts_.server_row_limit
                       : std::numeric_limits<uint64_t>::max();
  if (bounds.limit > 0 && bounds.limit < limit) limit = bounds.limit;

  std::vector<std::unique_ptr<Cursor>> cursors;
  cursors.reserve(disk.size() + mem_snapshots.size());
  for (const auto& reader : disk) {
    std::unique_ptr<Cursor> c;
    LT_RETURN_IF_ERROR(
        reader->NewCursor(bounds, schema.get(), &qs->scanned_, &c, tr));
    cursors.push_back(std::move(c));
  }
  for (auto& rows : mem_snapshots) {
    qs->scanned_.fetch_add(rows.size());
    cursors.push_back(
        std::make_unique<VectorCursor>(std::move(rows), bounds.direction));
  }

  auto merged = std::make_unique<MergingCursor>(
      schema.get(), std::move(cursors), bounds.direction);
  LT_RETURN_IF_ERROR(merged->status());

  qs->schema_ = std::move(schema);
  qs->bounds_ = std::move(bounds);
  qs->limit_ = limit;
  qs->readers_ = std::move(disk);  // Cursors reference them; keep alive.
  qs->merged_ = std::move(merged);
  qs->finished_ = false;  // Fully constructed: Finish now records stats.
  *out = std::move(qs);
  return Status::OK();
}

QueryStream::~QueryStream() { Finish(); }

template <typename Emit>
Status QueryStream::Pull(uint64_t max_scan_rows, const Emit& emit,
                         bool* have_row, bool* exhausted) {
  *have_row = false;
  *exhausted = false;
  if (done_) {
    *exhausted = true;
    return Status::OK();
  }
  uint64_t steps = 0;
  while (merged_->Valid()) {
    // The filter and the limit read key cells only; the row itself is
    // built (or encoded) just for the rows the caller receives.
    const Row& key = merged_->key();
    bool match = bounds_.TsInRange(key[schema_->ts_index()].AsInt());
    if (match && returned_ >= limit_) {
      // The limit+1'th matching row proves there is more: stop without
      // consuming it so a continuation query re-finds it.
      more_available_ = true;
      done_ = true;
      *exhausted = true;
      return Status::OK();
    }
    if (match) LT_RETURN_IF_ERROR(emit(merged_.get()));
    LT_RETURN_IF_ERROR(merged_->Next());
    LT_RETURN_IF_ERROR(merged_->status());
    if (match) {
      returned_++;
      *have_row = true;
      return Status::OK();
    }
    if (max_scan_rows > 0 && ++steps >= max_scan_rows) return Status::OK();
  }
  done_ = true;
  *exhausted = true;
  return merged_->status();
}

Status QueryStream::Next(uint64_t max_scan_rows, Row* row, bool* have_row,
                         bool* exhausted) {
  return Pull(
      max_scan_rows, [row](Cursor* c) { return c->ReadRow(row); }, have_row,
      exhausted);
}

Status QueryStream::NextEncoded(uint64_t max_scan_rows, std::string* out,
                                bool* have_row, bool* exhausted) {
  return Pull(
      max_scan_rows,
      [this, out](Cursor* c) { return c->AppendEncodedRow(*schema_, out); },
      have_row, exhausted);
}

void QueryStream::Finish() {
  if (finished_) return;
  finished_ = true;
  const uint64_t scanned = scanned_.load();
  Table* t = table_;
  t->stats_.rows_scanned.fetch_add(scanned);
  t->stats_.rows_returned.fetch_add(returned_);

  const int64_t elapsed = MonotonicMicros() - op_start_;
  trace_->rows_scanned += scanned;
  trace_->rows_returned += returned_;
  trace_->elapsed_micros += elapsed;
  t->stats_.query_micros.Record(static_cast<uint64_t>(elapsed));
  if (t->opts_.slow_query_micros > 0 &&
      elapsed >= t->opts_.slow_query_micros) {
    t->opts_.logger->Warn(
        "slow_query",
        {{"table", t->name_},
         {"elapsed_us", elapsed},
         {"rows_scanned", scanned},
         {"rows_returned", returned_},
         {"tablets_considered", trace_->tablets_considered},
         {"tablets_pruned", trace_->TabletsPruned()},
         {"blocks_read", trace_->blocks_read},
         {"cache_hits", trace_->cache_hits}});
  }
}

Status Table::Query(const QueryBounds& user_bounds, QueryResult* result,
                    QueryTrace* trace) {
  result->rows.clear();
  result->more_available = false;
  result->rows_scanned = 0;

  std::unique_ptr<QueryStream> qs;
  LT_RETURN_IF_ERROR(NewQueryStream(user_bounds, &qs, trace));
  Row row;
  bool have_row = false, exhausted = false;
  while (!exhausted) {
    LT_RETURN_IF_ERROR(qs->Next(0, &row, &have_row, &exhausted));
    if (have_row) result->rows.push_back(std::move(row));
  }
  result->more_available = qs->more_available();
  result->rows_scanned = qs->rows_scanned();
  qs->Finish();
  return Status::OK();
}

Status Table::LatestRowForPrefix(const Key& prefix, Row* row, bool* found) {
  *found = false;
  const Timestamp op_start = MonotonicMicros();
  const Timestamp now = clock_->Now();

  struct Source {
    Timestamp min_ts, max_ts;
    std::shared_ptr<TabletReader> reader;  // Null for in-memory snapshots.
    std::vector<Row> rows;
    std::string filename;  // Set for disk sources (quarantine target).
  };
  std::vector<Source> sources;
  std::shared_ptr<const Schema> schema;
  Timestamp cutoff;
  QueryBounds prefix_bounds = QueryBounds::ForPrefix(prefix);
  prefix_bounds.direction = Direction::kDescending;
  {
    std::lock_guard<std::mutex> lock(mu_);
    schema = schema_;
    cutoff = ExpiryCutoffLocked(now);
    for (const TabletMeta& m : tablets_) {
      if (m.row_count == 0 || m.max_ts < cutoff) continue;
      auto it = readers_.find(m.filename);
      if (it == readers_.end()) {
        return Status::Aborted("internal: no reader for tablet " + m.filename);
      }
      sources.push_back(Source{m.min_ts, m.max_ts, it->second, {}, m.filename});
    }
    auto snap = [&](const std::shared_ptr<MemTablet>& mt) {
      if (mt->empty() || mt->max_ts() < cutoff) return;
      std::vector<Row> rows;
      mt->Snapshot(prefix_bounds, &rows);
      if (!rows.empty()) {
        sources.push_back(Source{mt->min_ts(), mt->max_ts(), nullptr,
                                 std::move(rows)});
      }
    };
    ForEachMemTabletLocked(snap);
  }
  if (sources.empty()) return Status::OK();

  std::sort(sources.begin(), sources.end(), [](const Source& a, const Source& b) {
    return a.min_ts < b.min_ts;
  });

  // Group sources with overlapping timespans (§3.4.5): groups are disjoint
  // in time, so the first (newest) group containing a match holds the
  // global latest row.
  std::vector<std::pair<size_t, size_t>> groups;  // [begin, end)
  size_t begin = 0;
  Timestamp group_max = sources[0].max_ts;
  for (size_t i = 1; i < sources.size(); i++) {
    if (sources[i].min_ts > group_max) {
      groups.emplace_back(begin, i);
      begin = i;
      group_max = sources[i].max_ts;
    } else {
      group_max = std::max(group_max, sources[i].max_ts);
    }
  }
  groups.emplace_back(begin, sources.size());

  const bool prefix_is_all_but_ts =
      prefix.size() + 1 == schema->num_key_columns();

  for (auto git = groups.rbegin(); git != groups.rend(); ++git) {
    std::vector<std::unique_ptr<Cursor>> cursors;
    for (size_t i = git->first; i < git->second; i++) {
      Source& src = sources[i];
      if (src.reader) {
        Status ls = src.reader->Load();
        if (!ls.ok()) {
          if (!ShouldQuarantine(ls)) return ls;
          // Unreadable tablet: drop it and keep searching the remaining
          // sources; it can no longer contribute a latest row.
          std::lock_guard<std::mutex> lock(mu_);
          QuarantineTabletLocked(src.filename, ls);
          continue;
        }
        stats_.bloom_tablet_probes.fetch_add(1);
        if (!src.reader->MayContainPrefix(prefix)) {
          stats_.bloom_tablet_skips.fetch_add(1);
          continue;
        }
        std::unique_ptr<Cursor> c;
        LT_RETURN_IF_ERROR(src.reader->NewCursor(
            prefix_bounds, schema.get(), &stats_.rows_scanned, &c));
        cursors.push_back(std::move(c));
      } else {
        stats_.rows_scanned.fetch_add(src.rows.size());
        cursors.push_back(std::make_unique<VectorCursor>(
            std::move(src.rows), Direction::kDescending));
      }
    }
    if (cursors.empty()) continue;
    MergingCursor merged(schema.get(), std::move(cursors),
                         Direction::kDescending);
    LT_RETURN_IF_ERROR(merged.status());

    bool have_best = false;
    Row best;
    Timestamp best_ts = 0;
    while (merged.Valid()) {
      Timestamp ts = merged.key()[schema->ts_index()].AsInt();
      if (ts >= cutoff) {
        if (!have_best || ts > best_ts) {
          LT_RETURN_IF_ERROR(merged.ReadRow(&best));
          best_ts = ts;
          have_best = true;
        }
        // With the full key (minus ts) pinned, descending key order is
        // descending timestamp order, so the first hit is the latest.
        if (prefix_is_all_but_ts) break;
      }
      LT_RETURN_IF_ERROR(merged.Next());
    }
    if (have_best) {
      *row = std::move(best);
      *found = true;
      stats_.rows_returned.fetch_add(1);
      break;
    }
  }
  stats_.query_micros.Record(
      static_cast<uint64_t>(MonotonicMicros() - op_start));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Schema evolution.

Status Table::AppendColumn(const Column& column) {
  std::lock_guard<std::mutex> insert_lock(insert_mu_);
  LT_RETURN_IF_ERROR(FlushAll());
  std::lock_guard<std::mutex> lock(mu_);
  Result<Schema> next = schema_->WithAppendedColumn(column);
  if (!next.ok()) return next.status();
  schema_ = std::make_shared<const Schema>(std::move(*next));
  return SaveDescriptorLocked();
}

Status Table::WidenColumn(const std::string& column_name) {
  std::lock_guard<std::mutex> insert_lock(insert_mu_);
  LT_RETURN_IF_ERROR(FlushAll());
  std::lock_guard<std::mutex> lock(mu_);
  Result<Schema> next = schema_->WithWidenedColumn(column_name);
  if (!next.ok()) return next.status();
  schema_ = std::make_shared<const Schema>(std::move(*next));
  return SaveDescriptorLocked();
}

Status Table::SetTtl(Timestamp ttl) {
  if (ttl < 0) return Status::InvalidArgument("negative TTL");
  std::lock_guard<std::mutex> lock(mu_);
  ttl_ = ttl;
  return SaveDescriptorLocked();
}

// ---------------------------------------------------------------------------
// Introspection.

size_t Table::NumDiskTablets() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tablets_.size();
}

size_t Table::NumMemTablets() const {
  std::lock_guard<std::mutex> lock(mu_);
  return filling_.size() + sealed_.size() + flushing_.size();
}

uint64_t Table::DiskBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const TabletMeta& m : tablets_) total += m.file_bytes;
  return total;
}

uint64_t Table::ApproxMemBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  ForEachMemTabletLocked([&](const std::shared_ptr<MemTablet>& mt) {
    total += mt->ApproximateBytes();
  });
  return total;
}

std::vector<TabletMeta> Table::DiskTablets() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tablets_;
}

}  // namespace lt
