#include "lsm/version_set.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>

#include "lsm/compaction_job.h"
#include "lsm/file_names.h"
#include "lsm/log_reader.h"
#include "lsm/merger.h"
#include "lsm/two_level_iterator.h"
#include "util/coding.h"

namespace shield {

namespace {

int64_t TotalFileSize(const std::vector<FileMetaData*>& files) {
  int64_t sum = 0;
  for (const FileMetaData* f : files) {
    sum += static_cast<int64_t>(f->file_size);
  }
  return sum;
}

// Binary search for the earliest file whose largest key >= key.
// REQUIRES: files sorted by increasing smallest key, non-overlapping.
int FindFile(const InternalKeyComparator& icmp,
             const std::vector<FileMetaData*>& files, const Slice& key) {
  uint32_t left = 0;
  uint32_t right = static_cast<uint32_t>(files.size());
  while (left < right) {
    const uint32_t mid = (left + right) / 2;
    const FileMetaData* f = files[mid];
    if (icmp.Compare(f->largest.Encode(), key) < 0) {
      left = mid + 1;
    } else {
      right = mid;
    }
  }
  return static_cast<int>(right);
}

bool AfterFile(const Comparator* ucmp, const Slice* user_key,
               const FileMetaData* f) {
  return (user_key != nullptr &&
          ucmp->Compare(*user_key, f->largest.user_key()) > 0);
}

bool BeforeFile(const Comparator* ucmp, const Slice* user_key,
                const FileMetaData* f) {
  return (user_key != nullptr &&
          ucmp->Compare(*user_key, f->smallest.user_key()) < 0);
}

bool SomeFileOverlapsRange(const InternalKeyComparator& icmp,
                           bool disjoint_sorted_files,
                           const std::vector<FileMetaData*>& files,
                           const Slice* smallest_user_key,
                           const Slice* largest_user_key) {
  const Comparator* ucmp = icmp.user_comparator();
  if (!disjoint_sorted_files) {
    // Check all files.
    for (const FileMetaData* f : files) {
      if (AfterFile(ucmp, smallest_user_key, f) ||
          BeforeFile(ucmp, largest_user_key, f)) {
        // No overlap.
      } else {
        return true;
      }
    }
    return false;
  }

  // Binary search over disjoint files.
  uint32_t index = 0;
  if (smallest_user_key != nullptr) {
    const InternalKey small_key(*smallest_user_key, kMaxSequenceNumber,
                                kValueTypeForSeek);
    index = FindFile(icmp, files, small_key.Encode());
  }
  if (index >= files.size()) {
    return false;
  }
  return !BeforeFile(ucmp, largest_user_key, files[index]);
}

// Iterates over the file list of one level, yielding
// (largest_key -> encoded file number+size) entries; used as the index
// stage of the concatenating iterator.
class LevelFileNumIterator final : public Iterator {
 public:
  LevelFileNumIterator(const InternalKeyComparator& icmp,
                       const std::vector<FileMetaData*>* flist)
      : icmp_(icmp), flist_(flist), index_(flist->size()) {}

  bool Valid() const override { return index_ < flist_->size(); }
  void Seek(const Slice& target) override {
    index_ = FindFile(icmp_, *flist_, target);
  }
  void SeekToFirst() override { index_ = 0; }
  void SeekToLast() override {
    index_ = flist_->empty() ? 0 : flist_->size() - 1;
  }
  void Next() override {
    assert(Valid());
    index_++;
  }
  void Prev() override {
    assert(Valid());
    if (index_ == 0) {
      index_ = flist_->size();  // invalid
    } else {
      index_--;
    }
  }
  Slice key() const override {
    assert(Valid());
    return (*flist_)[index_]->largest.Encode();
  }
  Slice value() const override {
    assert(Valid());
    const FileMetaData* f = (*flist_)[index_];
    EncodeFixed64(value_buf_, f->number);
    EncodeFixed64(value_buf_ + 8, f->file_size);
    EncodeFixed64(value_buf_ + 16, f->tail_size);
    return Slice(value_buf_, sizeof(value_buf_));
  }
  Status status() const override { return Status::OK(); }

 private:
  InternalKeyComparator icmp_;
  const std::vector<FileMetaData*>* const flist_;
  size_t index_;
  mutable char value_buf_[24];
};

// Iterator over the tables of one sorted run, opened lazily through the
// table cache as the scan reaches each file.
Iterator* NewSortedRunIterator(const InternalKeyComparator& icmp,
                               const std::vector<FileMetaData*>* files,
                               TableCache* table_cache,
                               const ReadOptions& options) {
  return NewTwoLevelIterator(
      new LevelFileNumIterator(icmp, files),
      [table_cache, options](const Slice& file_value) -> Iterator* {
        if (file_value.size() != 24) {
          return NewErrorIterator(
              Status::Corruption("FileReader invoked with unexpected value"));
        }
        FileMetaData f;
        f.number = DecodeFixed64(file_value.data());
        f.file_size = DecodeFixed64(file_value.data() + 8);
        f.tail_size = DecodeFixed64(file_value.data() + 16);
        return table_cache->NewIterator(options, f);
      });
}

}  // namespace

// --- Version ---------------------------------------------------------

Version::~Version() {
  assert(refs_ == 0);
  // Remove from linked list.
  prev_->next_ = next_;
  next_->prev_ = prev_;
  // Drop references to files.
  for (int level = 0; level < kMaxNumLevels; level++) {
    for (FileMetaData* f : files_[level]) {
      assert(f->refs > 0);
      f->refs--;
      if (f->refs <= 0) {
        delete f;
      }
    }
  }
}

void Version::Ref() { ++refs_; }

void Version::GetAllFiles(std::vector<LiveFileInfo>* files) const {
  for (int level = 0; level < vset_->num_levels_; level++) {
    for (const FileMetaData* f : files_[level]) {
      files->push_back({level, f->number, f->file_size});
    }
  }
}

bool Version::ContainsFile(int level, uint64_t number) const {
  for (const FileMetaData* f : files_[level]) {
    if (f->number == number) {
      return true;
    }
  }
  return false;
}

void Version::Unref() {
  assert(this != &vset_->dummy_versions_);
  assert(refs_ >= 1);
  --refs_;
  if (refs_ == 0) {
    delete this;
  }
}

Iterator* Version::NewConcatenatingIterator(const ReadOptions& options,
                                            int level) const {
  return NewSortedRunIterator(*vset_->icmp_, &files_[level],
                              vset_->table_cache_, options);
}

void Version::AddIterators(const ReadOptions& options,
                           std::vector<Iterator*>* iters) {
  // Level-0 (and all universal/FIFO data): one iterator per file since
  // they may overlap; newest files last in files_[0], but merge order
  // does not matter for the merging iterator.
  for (FileMetaData* f : files_[0]) {
    iters->push_back(
        vset_->table_cache_->NewIterator(options, *f));
  }
  for (int level = 1; level < vset_->num_levels_; level++) {
    if (!files_[level].empty()) {
      iters->push_back(NewConcatenatingIterator(options, level));
    }
  }
}

namespace {

enum SaverState {
  kNotFound,
  kFound,
  kDeleted,
  kCorrupt,
};

struct Saver {
  SaverState state;
  const Comparator* ucmp;
  Slice user_key;
  std::string* value;
};

void SaveValue(void* arg, const Slice& ikey, const Slice& v) {
  Saver* s = reinterpret_cast<Saver*>(arg);
  ParsedInternalKey parsed_key;
  if (!ParseInternalKey(ikey, &parsed_key)) {
    s->state = kCorrupt;
    return;
  }
  if (s->ucmp->Compare(parsed_key.user_key, s->user_key) == 0) {
    s->state = (parsed_key.type == kTypeValue) ? kFound : kDeleted;
    if (s->state == kFound) {
      s->value->assign(v.data(), v.size());
    }
  }
}

bool NewestFirst(FileMetaData* a, FileMetaData* b) {
  // Recency at level 0 is determined by data age (largest contained
  // sequence number), not file number: a universal compaction can
  // produce an older-data output with a higher number than a
  // concurrent flush.
  if (a->largest_seq != b->largest_seq) {
    return a->largest_seq > b->largest_seq;
  }
  return a->number > b->number;
}

}  // namespace

Status Version::Get(const ReadOptions& options, const LookupKey& k,
                    std::string* value) {
  const Slice ikey = k.internal_key();
  const Slice user_key = k.user_key();
  const Comparator* ucmp = vset_->icmp_->user_comparator();

  // Search level 0 newest-to-oldest, then deeper levels.
  std::vector<FileMetaData*> tmp;
  tmp.reserve(files_[0].size());
  for (FileMetaData* f : files_[0]) {
    if (ucmp->Compare(user_key, f->smallest.user_key()) >= 0 &&
        ucmp->Compare(user_key, f->largest.user_key()) <= 0) {
      tmp.push_back(f);
    }
  }
  std::sort(tmp.begin(), tmp.end(), NewestFirst);

  Saver saver;
  saver.ucmp = ucmp;
  saver.user_key = user_key;
  saver.value = value;

  for (FileMetaData* f : tmp) {
    saver.state = kNotFound;
    Status s =
        vset_->table_cache_->Get(options, *f, ikey, &saver, SaveValue);
    if (!s.ok()) {
      return s;
    }
    switch (saver.state) {
      case kNotFound:
        break;  // keep searching
      case kFound:
        return Status::OK();
      case kDeleted:
        return Status::NotFound("");
      case kCorrupt:
        return Status::Corruption("corrupted key for ", user_key);
    }
  }

  for (int level = 1; level < vset_->num_levels_; level++) {
    const std::vector<FileMetaData*>& files = files_[level];
    if (files.empty()) {
      continue;
    }
    const int index = FindFile(*vset_->icmp_, files, ikey);
    if (index >= static_cast<int>(files.size())) {
      continue;
    }
    FileMetaData* f = files[index];
    if (ucmp->Compare(user_key, f->smallest.user_key()) < 0) {
      continue;
    }
    saver.state = kNotFound;
    Status s =
        vset_->table_cache_->Get(options, *f, ikey, &saver, SaveValue);
    if (!s.ok()) {
      return s;
    }
    switch (saver.state) {
      case kNotFound:
        break;
      case kFound:
        return Status::OK();
      case kDeleted:
        return Status::NotFound("");
      case kCorrupt:
        return Status::Corruption("corrupted key for ", user_key);
    }
  }

  return Status::NotFound("");
}

void Version::MultiGet(const ReadOptions& options,
                       const std::vector<VersionGetRequest*>& requests) {
  const Comparator* ucmp = vset_->icmp_->user_comparator();

  // Saver state parallel to `requests`, reused across file probes.
  std::vector<Saver> savers(requests.size());
  for (size_t i = 0; i < requests.size(); i++) {
    savers[i].state = kNotFound;
    savers[i].ucmp = ucmp;
    savers[i].user_key = requests[i]->key->user_key();
    savers[i].value = requests[i]->value;
  }

  // Folds one probe's outcome into the request, mirroring the switch
  // in Version::Get. kNotFound keeps the key in play for older files.
  auto resolve = [&](size_t i, const Status& s) {
    VersionGetRequest* req = requests[i];
    if (!s.ok()) {
      req->status = s;
      req->done = true;
      return;
    }
    switch (savers[i].state) {
      case kNotFound:
        break;
      case kFound:
        req->status = Status::OK();
        req->done = true;
        break;
      case kDeleted:
        req->status = Status::NotFound("");
        req->done = true;
        break;
      case kCorrupt:
        req->status =
            Status::Corruption("corrupted key for ", savers[i].user_key);
        req->done = true;
        break;
    }
  };

  // Runs one file's batch. `batch` holds the per-table requests;
  // `batch_idx` maps them back into `requests`.
  auto probe_file = [&](FileMetaData* f, std::vector<TableGetRequest>& batch,
                        std::vector<size_t>& batch_idx) {
    if (batch.empty()) {
      return;
    }
    std::vector<TableGetRequest*> ptrs;
    ptrs.reserve(batch.size());
    for (TableGetRequest& b : batch) {
      ptrs.push_back(&b);
    }
    vset_->table_cache_->MultiGet(options, *f, ptrs);
    for (size_t j = 0; j < batch.size(); j++) {
      resolve(batch_idx[j], batch[j].status);
    }
  };

  // Level 0: files overlap, so probe newest-to-oldest; each file sees
  // every still-unresolved key it covers in one batch.
  std::vector<FileMetaData*> level0(files_[0]);
  std::sort(level0.begin(), level0.end(), NewestFirst);
  for (FileMetaData* f : level0) {
    std::vector<TableGetRequest> batch;
    std::vector<size_t> batch_idx;
    for (size_t i = 0; i < requests.size(); i++) {
      if (requests[i]->done) {
        continue;
      }
      if (ucmp->Compare(savers[i].user_key, f->smallest.user_key()) < 0 ||
          ucmp->Compare(savers[i].user_key, f->largest.user_key()) > 0) {
        continue;
      }
      savers[i].state = kNotFound;
      TableGetRequest treq;
      treq.internal_key = requests[i]->key->internal_key();
      treq.arg = &savers[i];
      treq.handle_result = SaveValue;
      batch.push_back(treq);
      batch_idx.push_back(i);
    }
    probe_file(f, batch, batch_idx);
  }

  // Deeper levels: files are disjoint and sorted, and the requests are
  // sorted too, so FindFile maps consecutive unresolved keys to
  // non-decreasing file indices — group runs of equal indices.
  for (int level = 1; level < vset_->num_levels_; level++) {
    const std::vector<FileMetaData*>& files = files_[level];
    if (files.empty()) {
      continue;
    }
    size_t i = 0;
    while (i < requests.size()) {
      if (requests[i]->done) {
        i++;
        continue;
      }
      const int index =
          FindFile(*vset_->icmp_, files, requests[i]->key->internal_key());
      if (index >= static_cast<int>(files.size())) {
        i++;
        continue;
      }
      FileMetaData* f = files[index];
      std::vector<TableGetRequest> batch;
      std::vector<size_t> batch_idx;
      size_t j = i;
      while (j < requests.size()) {
        if (requests[j]->done) {
          j++;
          continue;
        }
        if (FindFile(*vset_->icmp_, files, requests[j]->key->internal_key()) !=
            index) {
          break;
        }
        const size_t cur = j++;
        if (ucmp->Compare(savers[cur].user_key, f->smallest.user_key()) < 0) {
          continue;  // falls in the gap before this file: not at this level
        }
        savers[cur].state = kNotFound;
        TableGetRequest treq;
        treq.internal_key = requests[cur]->key->internal_key();
        treq.arg = &savers[cur];
        treq.handle_result = SaveValue;
        batch.push_back(treq);
        batch_idx.push_back(cur);
      }
      probe_file(f, batch, batch_idx);
      i = j;
    }
  }
}

bool Version::OverlapInLevel(int level, const Slice* smallest_user_key,
                             const Slice* largest_user_key) {
  return SomeFileOverlapsRange(*vset_->icmp_, level > 0, files_[level],
                               smallest_user_key, largest_user_key);
}

void Version::GetOverlappingInputs(int level, const InternalKey* begin,
                                   const InternalKey* end,
                                   std::vector<FileMetaData*>* inputs) {
  assert(level >= 0);
  assert(level < vset_->num_levels_);
  inputs->clear();
  Slice user_begin, user_end;
  if (begin != nullptr) {
    user_begin = begin->user_key();
  }
  if (end != nullptr) {
    user_end = end->user_key();
  }
  const Comparator* user_cmp = vset_->icmp_->user_comparator();
  for (size_t i = 0; i < files_[level].size();) {
    FileMetaData* f = files_[level][i++];
    const Slice file_start = f->smallest.user_key();
    const Slice file_limit = f->largest.user_key();
    if (begin != nullptr && user_cmp->Compare(file_limit, user_begin) < 0) {
      // Entirely before range; skip.
    } else if (end != nullptr &&
               user_cmp->Compare(file_start, user_end) > 0) {
      // Entirely after range; skip.
    } else {
      inputs->push_back(f);
      if (level == 0) {
        // Level-0 files may overlap each other: grow the range and
        // restart to pull in transitively overlapping files.
        if (begin != nullptr &&
            user_cmp->Compare(file_start, user_begin) < 0) {
          user_begin = file_start;
          inputs->clear();
          i = 0;
        } else if (end != nullptr &&
                   user_cmp->Compare(file_limit, user_end) > 0) {
          user_end = file_limit;
          inputs->clear();
          i = 0;
        }
      }
    }
  }
}

std::string Version::DebugString() const {
  std::string r;
  for (int level = 0; level < vset_->num_levels_; level++) {
    r += "--- level " + std::to_string(level) + " ---\n";
    for (const FileMetaData* f : files_[level]) {
      r += "  " + std::to_string(f->number) + ":" +
           std::to_string(f->file_size) + "[" +
           f->smallest.user_key().ToString() + " .. " +
           f->largest.user_key().ToString() + "]\n";
    }
  }
  return r;
}

// --- VersionSet::Builder ----------------------------------------------

// Accumulates edits on top of a base version to produce a new one.
class VersionSet::Builder {
 public:
  Builder(VersionSet* vset, Version* base) : vset_(vset), base_(base) {
    base_->Ref();
    BySmallestKey cmp;
    cmp.internal_comparator = vset_->icmp_;
    for (int level = 0; level < kMaxNumLevels; level++) {
      levels_[level].added_files =
          std::make_shared<FileSet>(cmp);
    }
  }

  ~Builder() {
    for (int level = 0; level < kMaxNumLevels; level++) {
      std::vector<FileMetaData*> to_unref(levels_[level].added_files->begin(),
                                          levels_[level].added_files->end());
      for (FileMetaData* f : to_unref) {
        f->refs--;
        if (f->refs <= 0) {
          delete f;
        }
      }
    }
    base_->Unref();
  }

  void Apply(const VersionEdit* edit) {
    for (const auto& [level, number] : edit->deleted_files_) {
      levels_[level].deleted_files.insert(number);
    }
    for (const auto& [level, meta] : edit->new_files_) {
      FileMetaData* f = new FileMetaData(meta);
      f->refs = 1;
      levels_[level].deleted_files.erase(f->number);
      levels_[level].added_files->insert(f);
    }
  }

  void SaveTo(Version* v) {
    BySmallestKey cmp;
    cmp.internal_comparator = vset_->icmp_;
    for (int level = 0; level < kMaxNumLevels; level++) {
      // Merge base files with added files, keeping order.
      const std::vector<FileMetaData*>& base_files = base_->files_[level];
      auto base_iter = base_files.begin();
      auto base_end = base_files.end();
      const auto& added_files = *levels_[level].added_files;
      v->files_[level].reserve(base_files.size() + added_files.size());
      for (FileMetaData* added_file : added_files) {
        for (auto bpos = std::upper_bound(base_iter, base_end, added_file, cmp);
             base_iter != bpos; ++base_iter) {
          MaybeAddFile(v, level, *base_iter);
        }
        MaybeAddFile(v, level, added_file);
      }
      for (; base_iter != base_end; ++base_iter) {
        MaybeAddFile(v, level, *base_iter);
      }
    }
  }

 private:
  struct BySmallestKey {
    const InternalKeyComparator* internal_comparator;

    bool operator()(FileMetaData* f1, FileMetaData* f2) const {
      const int r = internal_comparator->Compare(f1->smallest.Encode(),
                                                 f2->smallest.Encode());
      if (r != 0) {
        return r < 0;
      }
      return f1->number < f2->number;
    }
  };

  using FileSet = std::set<FileMetaData*, BySmallestKey>;

  struct LevelState {
    std::set<uint64_t> deleted_files;
    std::shared_ptr<FileSet> added_files;
  };

  void MaybeAddFile(Version* v, int level, FileMetaData* f) {
    if (levels_[level].deleted_files.count(f->number) > 0) {
      return;  // deleted
    }
    std::vector<FileMetaData*>* files = &v->files_[level];
    if (level > 0 && !files->empty()) {
      // Must not overlap the previous file at this level.
      assert(vset_->icmp_->Compare(files->back()->largest.Encode(),
                                   f->smallest.Encode()) < 0);
    }
    f->refs++;
    files->push_back(f);
  }

  VersionSet* vset_;
  Version* base_;
  LevelState levels_[kMaxNumLevels];
};

// --- VersionSet --------------------------------------------------------

VersionSet::VersionSet(std::string dbname, const Options& options,
                       const InternalKeyComparator* icmp,
                       TableCache* table_cache, DataFileFactory* files)
    : dbname_(std::move(dbname)),
      options_(options),
      icmp_(icmp),
      table_cache_(table_cache),
      files_(files),
      num_levels_(std::min(options.num_levels, kMaxNumLevels)),
      dummy_versions_(this) {
  AppendVersion(new Version(this));
}

VersionSet::~VersionSet() {
  current_->Unref();
  assert(dummy_versions_.next_ == &dummy_versions_);  // all versions gone
}

void VersionSet::AppendVersion(Version* v) {
  assert(v->refs_ == 0);
  assert(v != current_);
  if (current_ != nullptr) {
    current_->Unref();
  }
  current_ = v;
  v->Ref();

  // Append to linked list.
  v->prev_ = dummy_versions_.prev_;
  v->next_ = &dummy_versions_;
  v->prev_->next_ = v;
  v->next_->prev_ = v;
}

Status VersionSet::LogAndApply(VersionEdit* edit, std::mutex* mu) {
  // Serialize manifest writers: a flush and a compaction can both call
  // in concurrently, and each releases *mu during the manifest append.
  {
    std::unique_lock<std::mutex> lock(*mu, std::adopt_lock);
    manifest_cv_.wait(lock, [this] { return !writing_manifest_; });
    lock.release();
  }
  writing_manifest_ = true;

  if (edit->has_log_number_) {
    assert(edit->log_number_ >= log_number_);
    assert(edit->log_number_ < next_file_number_);
  } else {
    edit->SetLogNumber(log_number_);
  }
  edit->SetNextFile(next_file_number_);
  edit->SetLastSequence(last_sequence_);

  Version* v = new Version(this);
  {
    Builder builder(this, current_);
    builder.Apply(edit);
    builder.SaveTo(v);
  }
  Finalize(v);

  // Initialize a new descriptor log if necessary.
  std::string new_manifest_file;
  Status s;
  if (descriptor_log_ == nullptr) {
    assert(descriptor_file_ == nullptr);
    if (manifest_file_number_ == 0) {
      manifest_file_number_ = NewFileNumber();
    }
    new_manifest_file = DescriptorFileName(dbname_, manifest_file_number_);
    s = files_->NewWritableFile(new_manifest_file, FileKind::kManifest,
                                &descriptor_file_);
    if (s.ok()) {
      descriptor_log_ = std::make_unique<log::Writer>(descriptor_file_.get());
      s = WriteSnapshot(descriptor_log_.get());
    }
  }

  // Write the edit to the manifest without holding the DB mutex.
  {
    mu->unlock();
    if (s.ok()) {
      std::string record;
      edit->EncodeTo(&record);
      s = descriptor_log_->AddRecord(record);
      if (s.ok()) {
        s = descriptor_file_->Sync();
      }
    }
    if (s.ok() && !new_manifest_file.empty()) {
      s = SetCurrentFile(files_->env(), dbname_, manifest_file_number_);
    }
    mu->lock();
  }

  if (s.ok()) {
    AppendVersion(v);
    log_number_ = edit->log_number_;
    manifest_position_ = {manifest_file_number_,
                          descriptor_log_->logical_offset()};
  } else {
    delete v;
    // The manifest tail is now suspect: the append (or its sync) may
    // have landed partially. Abandon this descriptor and roll to a
    // freshly numbered MANIFEST on the next LogAndApply; while
    // manifest_file_number_ is 0, RemoveObsoleteFiles keeps every
    // descriptor, including the one CURRENT still points to.
    descriptor_log_.reset();
    descriptor_file_.reset();
    if (!new_manifest_file.empty()) {
      files_->DeleteFile(new_manifest_file);
    }
    manifest_file_number_ = 0;
  }

  writing_manifest_ = false;
  manifest_cv_.notify_all();
  return s;
}

Status VersionSet::Recover() {
  // Read CURRENT.
  std::string current;
  Status s = ReadFileToString(files_->env(), CurrentFileName(dbname_),
                              &current);
  if (!s.ok()) {
    return s;
  }
  if (current.empty() || current.back() != '\n') {
    return Status::Corruption("CURRENT file does not end with newline");
  }
  current.resize(current.size() - 1);

  const std::string dscname = dbname_ + "/" + current;
  uint64_t manifest_number = 0;
  DbFileType manifest_type;
  if (!ParseFileName(current, &manifest_number, &manifest_type) ||
      manifest_type != DbFileType::kDescriptorFile) {
    return Status::Corruption("CURRENT does not name a MANIFEST", current);
  }
  std::unique_ptr<SequentialFile> file;
  s = files_->NewSequentialFile(dscname, &file);
  if (!s.ok()) {
    if (s.IsNotFound()) {
      return Status::Corruption("CURRENT points to a non-existent MANIFEST",
                                dscname);
    }
    return s;
  }

  bool have_log_number = false;
  bool have_next_file = false;
  bool have_last_sequence = false;
  uint64_t next_file = 0;
  uint64_t log_number = 0;
  SequenceNumber last_sequence = 0;
  uint64_t applied_end_offset = 0;

  Builder builder(this, current_);

  {
    struct LogReporter : public log::Reader::Reporter {
      Status* status;
      void Corruption(size_t /*bytes*/, const Status& s) override {
        if (status->ok()) {
          *status = s;
        }
      }
    };
    LogReporter reporter;
    Status log_damage;
    reporter.status = &log_damage;
    log::Reader reader(file.get(), &reporter);
    Slice record;
    std::string scratch;
    while (reader.ReadRecord(&record, &scratch) && s.ok() &&
           log_damage.ok()) {
      VersionEdit edit;
      s = edit.DecodeFrom(record);
      if (s.ok() && edit.has_comparator_ &&
          edit.comparator_ != icmp_->user_comparator()->Name()) {
        s = Status::InvalidArgument(
            edit.comparator_ + " does not match existing comparator ",
            icmp_->user_comparator()->Name());
      }
      if (s.ok()) {
        builder.Apply(&edit);
        applied_end_offset = reader.LastRecordEndOffset();
      }
      if (edit.has_log_number_) {
        log_number = edit.log_number_;
        have_log_number = true;
      }
      if (edit.has_next_file_number_) {
        next_file = edit.next_file_number_;
        have_next_file = true;
      }
      if (edit.has_last_sequence_) {
        last_sequence = edit.last_sequence_;
        have_last_sequence = true;
      }
    }
    if (s.ok() && !log_damage.ok()) {
      if (options_.paranoid_checks) {
        s = log_damage;
      }
      // Otherwise the damage starts at the tail of the descriptor —
      // the writer crashed mid-append. Replay stopped there, so the
      // intact prefix is accepted; the mandatory-field checks below
      // still reject a prefix too short to describe a database.
    }
  }

  if (s.ok()) {
    if (!have_next_file) {
      s = Status::Corruption("no meta-nextfile entry in descriptor");
    } else if (!have_log_number) {
      s = Status::Corruption("no meta-lognumber entry in descriptor");
    } else if (!have_last_sequence) {
      s = Status::Corruption("no last-sequence-number entry in descriptor");
    }
  }

  if (s.ok()) {
    Version* v = new Version(this);
    builder.SaveTo(v);
    Finalize(v);
    AppendVersion(v);
    manifest_file_number_ = next_file;  // start a fresh manifest
    next_file_number_ = next_file + 1;
    last_sequence_ = last_sequence;
    log_number_ = log_number;
    MarkFileNumberUsed(log_number);
    manifest_position_ = {manifest_number, applied_end_offset};
  }

  return s;
}

void VersionSet::Finalize(Version* v) {
  if (options_.compaction_style != CompactionStyle::kLeveled) {
    // Universal/FIFO keep everything in level 0; scoring happens in
    // the pickers.
    v->compaction_level_ = 0;
    v->compaction_score_ = 0;
    return;
  }

  // Bottom-up targets, as RocksDB's level_compaction_dynamic_level_bytes
  // sizes them. The last level holds the data: the largest level is
  // taken to sit there, and each level above targets the one below it
  // divided by the multiplier. The base level, which L0 compacts into,
  // is the deepest level whose target fits max_bytes_for_level_base,
  // but never below the first non-empty level, so the levels between
  // L0 and the base are always empty and an L0 output can never land
  // under older data. Every target is floored at the size of L0 when
  // it triggers: a smaller base level would be spilled through by each
  // L0 compaction.
  const int last = num_levels_ - 1;
  int first_nonempty = last;
  double largest = 0;
  for (int level = last; level >= 1; level--) {
    const double bytes = static_cast<double>(TotalFileSize(v->files_[level]));
    if (bytes > 0) {
      first_nonempty = level;
      largest = std::max(largest, bytes);
    }
  }
  const double multiplier = options_.max_bytes_for_level_multiplier;
  double target = largest;
  int base = last;
  while (base > first_nonempty ||
         (base > 1 &&
          target > static_cast<double>(options_.max_bytes_for_level_base))) {
    target /= multiplier;
    base--;
  }
  v->base_level_ = base;

  const double floor =
      static_cast<double>(options_.level0_file_num_compaction_trigger) *
      static_cast<double>(options_.write_buffer_size);
  v->compaction_level_ = -1;
  v->compaction_score_ = -1;
  for (int level = 0; level < last; level++) {
    double score;
    if (level == 0) {
      score = v->files_[0].size() /
              static_cast<double>(options_.level0_file_num_compaction_trigger);
    } else {
      // The levels above the base are empty and score 0.
      score = static_cast<double>(TotalFileSize(v->files_[level])) /
              std::max(largest / std::pow(multiplier, last - level), floor);
    }
    if (score > v->compaction_score_) {
      v->compaction_level_ = level;
      v->compaction_score_ = score;
    }
  }
}

Status VersionSet::WriteSnapshot(log::Writer* log) {
  VersionEdit edit;
  edit.SetComparatorName(icmp_->user_comparator()->Name());
  for (int level = 0; level < num_levels_; level++) {
    for (const FileMetaData* f : current_->files_[level]) {
      edit.AddFile(level, f->number, f->file_size, f->smallest, f->largest,
                   f->largest_seq, f->tail_size);
    }
  }
  std::string record;
  edit.EncodeTo(&record);
  return log->AddRecord(record);
}

int VersionSet::NumLevelFiles(int level) const {
  return static_cast<int>(current_->files_[level].size());
}

int64_t VersionSet::NumLevelBytes(int level) const {
  return TotalFileSize(current_->files_[level]);
}

void VersionSet::AddLiveFiles(std::set<uint64_t>* live) {
  for (Version* v = dummy_versions_.next_; v != &dummy_versions_;
       v = v->next_) {
    for (int level = 0; level < num_levels_; level++) {
      for (const FileMetaData* f : v->files_[level]) {
        live->insert(f->number);
      }
    }
  }
}

void VersionSet::GetRange(const std::vector<FileMetaData*>& inputs,
                          InternalKey* smallest, InternalKey* largest) {
  assert(!inputs.empty());
  smallest->Clear();
  largest->Clear();
  for (size_t i = 0; i < inputs.size(); i++) {
    FileMetaData* f = inputs[i];
    if (i == 0) {
      *smallest = f->smallest;
      *largest = f->largest;
    } else {
      if (icmp_->Compare(f->smallest.Encode(), smallest->Encode()) < 0) {
        *smallest = f->smallest;
      }
      if (icmp_->Compare(f->largest.Encode(), largest->Encode()) > 0) {
        *largest = f->largest;
      }
    }
  }
}

void VersionSet::GetRange2(const std::vector<FileMetaData*>& inputs1,
                           const std::vector<FileMetaData*>& inputs2,
                           InternalKey* smallest, InternalKey* largest) {
  std::vector<FileMetaData*> all = inputs1;
  all.insert(all.end(), inputs2.begin(), inputs2.end());
  GetRange(all, smallest, largest);
}

Iterator* VersionSet::MakeInputIterator(Compaction* c) {
  const ReadOptions options = CompactionReadOptions();

  // Level-0 files must be iterated individually (they overlap); other
  // levels use a concatenating iterator.
  const int space =
      (c->level() == 0 ? c->num_input_files(0) + 1 : 2);
  Iterator** list = new Iterator*[space];
  int num = 0;
  for (int which = 0; which < 2; which++) {
    if (!c->inputs_[which].empty()) {
      if (which == 0 && c->level() == 0) {
        for (FileMetaData* f : c->inputs_[which]) {
          list[num++] = table_cache_->NewIterator(options, *f);
        }
      } else {
        list[num++] = NewSortedRunIterator(*icmp_, &c->inputs_[which],
                                           table_cache_, options);
      }
    }
  }
  assert(num <= space);
  Iterator* result = NewMergingIterator(icmp_, list, num);
  delete[] list;
  return result;
}

bool VersionSet::NeedsCompaction() const {
  switch (options_.compaction_style) {
    case CompactionStyle::kLeveled:
      return current_->compaction_score_ >= 1;
    case CompactionStyle::kUniversal:
      return NumLevelFiles(0) >= options_.level0_file_num_compaction_trigger;
    case CompactionStyle::kFifo: {
      int64_t total = 0;
      for (const FileMetaData* f : current_->files_[0]) {
        total += static_cast<int64_t>(f->file_size);
      }
      return total > static_cast<int64_t>(options_.fifo_max_table_files_size);
    }
  }
  return false;
}

// --- Compaction --------------------------------------------------------

Compaction::Compaction(const Options& options, int level, int output_level)
    : level_(level),
      output_level_(output_level),
      max_output_file_size_(options.target_file_size_base),
      input_version_(nullptr) {}

Compaction::~Compaction() {
  if (input_version_ != nullptr) {
    input_version_->Unref();
  }
}

bool Compaction::IsTrivialMove() const {
  if (deletion_only_) {
    return false;
  }
  // A single input file with no overlap at the next level can be moved.
  return num_input_files(0) == 1 && num_input_files(1) == 0 &&
         level_ != output_level_;
}

void Compaction::AddInputDeletions(VersionEdit* edit) {
  for (int which = 0; which < 2; which++) {
    for (FileMetaData* f : inputs_[which]) {
      edit->RemoveFile(which == 0 ? level_ : output_level_, f->number);
    }
  }
}

bool Compaction::IsBaseLevelForKey(const Slice& user_key) {
  if (OverlapsOtherL0File(user_key, user_key)) {
    return false;
  }
  const Comparator* user_cmp =
      input_version_->vset_->icmp_->user_comparator();
  const int num_levels = input_version_->vset_->num_levels_;
  for (int lvl = output_level_ + 1; lvl < num_levels; lvl++) {
    const std::vector<FileMetaData*>& files = input_version_->files_[lvl];
    while (level_ptrs_[lvl] < files.size()) {
      FileMetaData* f = files[level_ptrs_[lvl]];
      if (user_cmp->Compare(user_key, f->largest.user_key()) <= 0) {
        if (user_cmp->Compare(user_key, f->smallest.user_key()) >= 0) {
          return false;  // key may be present in a deeper level
        }
        break;
      }
      level_ptrs_[lvl]++;
    }
  }
  return true;
}

bool Compaction::OverlapsOtherL0File(const Slice& smallest_user_key,
                                     const Slice& largest_user_key) const {
  if (output_level_ != 0) {
    return false;
  }
  const Comparator* user_cmp =
      input_version_->vset_->icmp_->user_comparator();
  for (FileMetaData* f : input_version_->files_[0]) {
    if (std::find(inputs_[0].begin(), inputs_[0].end(), f) ==
            inputs_[0].end() &&
        user_cmp->Compare(smallest_user_key, f->largest.user_key()) <= 0 &&
        user_cmp->Compare(largest_user_key, f->smallest.user_key()) >= 0) {
      return true;
    }
  }
  return false;
}

void Compaction::ReleaseInputs() {
  if (input_version_ != nullptr) {
    input_version_->Unref();
    input_version_ = nullptr;
  }
}

}  // namespace shield
