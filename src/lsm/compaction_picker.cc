#include <algorithm>

#include "lsm/version_set.h"

namespace shield {

// Compaction-picking policies (paper Fig. 15 evaluates SHIELD across
// RocksDB's leveled, universal, and FIFO styles; the pickers below
// implement the corresponding behaviours on this engine).

Compaction* VersionSet::PickCompaction() {
  switch (options_.compaction_style) {
    case CompactionStyle::kLeveled:
      return PickLeveledCompaction();
    case CompactionStyle::kUniversal:
      return PickUniversalCompaction();
    case CompactionStyle::kFifo:
      return PickFifoCompaction();
  }
  return nullptr;
}

Compaction* VersionSet::PickLeveledCompaction() {
  if (current_->compaction_score_ < 1) {
    return nullptr;
  }
  const int level = current_->compaction_level_;
  assert(level >= 0);
  assert(level + 1 < num_levels_);

  // L0 compacts straight into the base level; the levels between are
  // empty (VersionSet::Finalize).
  Compaction* c = new Compaction(
      options_, level, level == 0 ? current_->base_level_ : level + 1);

  // Pick the first file past compact_pointer_[level] (round-robin over
  // the keyspace so every file is eventually compacted — and under
  // SHIELD, eventually re-keyed).
  for (FileMetaData* f : current_->files_[level]) {
    if (compact_pointer_[level].empty() ||
        icmp_->Compare(f->largest.Encode(),
                       Slice(compact_pointer_[level])) > 0) {
      c->inputs_[0].push_back(f);
      break;
    }
  }
  if (c->inputs_[0].empty() && !current_->files_[level].empty()) {
    // Wrap around.
    c->inputs_[0].push_back(current_->files_[level][0]);
  }
  if (c->inputs_[0].empty()) {
    delete c;
    return nullptr;
  }

  c->input_version_ = current_;
  c->input_version_->Ref();

  if (level == 0) {
    // Level-0 files may overlap each other; pull in all overlapping
    // ones.
    InternalKey smallest, largest;
    GetRange(c->inputs_[0], &smallest, &largest);
    current_->GetOverlappingInputs(0, &smallest, &largest, &c->inputs_[0]);
    assert(!c->inputs_[0].empty());
  }

  SetupOtherInputs(c);
  return c;
}

void VersionSet::SetupOtherInputs(Compaction* c) {
  const int level = c->level();
  const int output_level = c->output_level();
  InternalKey smallest, largest;
  GetRange(c->inputs_[0], &smallest, &largest);
  InternalKey all_start = smallest, all_limit = largest;

  // An in-place job's output level is its input level: it has no
  // second set of inputs to gather or grow.
  if (output_level != level) {
    current_->GetOverlappingInputs(output_level, &smallest, &largest,
                                   &c->inputs_[1]);
    GetRange2(c->inputs_[0], c->inputs_[1], &all_start, &all_limit);
  }

  // Try to grow the level-`level` inputs without changing the
  // output-level inputs (pulls more work into one pass when free).
  if (!c->inputs_[1].empty()) {
    std::vector<FileMetaData*> expanded0;
    current_->GetOverlappingInputs(level, &all_start, &all_limit, &expanded0);
    int64_t inputs0_size = 0, inputs1_size = 0, expanded0_size = 0;
    for (FileMetaData* f : c->inputs_[0]) inputs0_size += f->file_size;
    for (FileMetaData* f : c->inputs_[1]) inputs1_size += f->file_size;
    for (FileMetaData* f : expanded0) expanded0_size += f->file_size;
    const int64_t expansion_limit =
        25 * static_cast<int64_t>(options_.target_file_size_base);
    if (expanded0.size() > c->inputs_[0].size() &&
        inputs1_size + expanded0_size < expansion_limit) {
      InternalKey new_start, new_limit;
      GetRange(expanded0, &new_start, &new_limit);
      std::vector<FileMetaData*> expanded1;
      current_->GetOverlappingInputs(output_level, &new_start, &new_limit,
                                     &expanded1);
      if (expanded1.size() == c->inputs_[1].size()) {
        c->inputs_[0] = expanded0;
        c->inputs_[1] = expanded1;
        GetRange2(c->inputs_[0], c->inputs_[1], &all_start, &all_limit);
      }
    }
  }

  // Mark bottommost: no data below the output level within the key
  // range means tombstones can be dropped.
  c->bottommost_ = !DataBelow(c, all_start.user_key(), all_limit.user_key());

  GetRange(c->inputs_[0], &smallest, &largest);
  compact_pointer_[level] = largest.Encode().ToString();
  c->edit_.Clear();
}

bool VersionSet::DataBelow(const Compaction* c,
                           const Slice& smallest_user_key,
                           const Slice& largest_user_key) {
  if (c->OverlapsOtherL0File(smallest_user_key, largest_user_key)) {
    return true;
  }
  for (int lvl = c->output_level() + 1; lvl < num_levels_; lvl++) {
    if (current_->OverlapInLevel(lvl, &smallest_user_key,
                                 &largest_user_key)) {
      return true;
    }
  }
  return false;
}

Compaction* VersionSet::PickUniversalCompaction() {
  // All sorted runs live in level 0 (each file is one run). When the
  // number of runs reaches the trigger, merge a prefix of the NEWEST
  // runs selected by the size-ratio rule into a single run — fewer,
  // larger I/Os than leveled (tiered compaction). Merging an
  // age-contiguous newest prefix preserves the level-0 recency
  // invariant: the merged output receives a fresh (highest) file
  // number and indeed holds the newest data.
  const std::vector<FileMetaData*>& files = current_->files_[0];
  const int trigger = options_.level0_file_num_compaction_trigger;
  if (static_cast<int>(files.size()) < trigger) {
    return nullptr;
  }

  std::vector<FileMetaData*> newest_first = files;
  std::sort(newest_first.begin(), newest_first.end(),
            [](FileMetaData* a, FileMetaData* b) {
              if (a->largest_seq != b->largest_seq) {
                return a->largest_seq > b->largest_seq;
              }
              return a->number > b->number;
            });

  std::vector<FileMetaData*> picked;
  int64_t accumulated = 0;
  for (FileMetaData* f : newest_first) {
    if (picked.empty()) {
      picked.push_back(f);
      accumulated = static_cast<int64_t>(f->file_size);
      continue;
    }
    const int64_t limit =
        accumulated * (100 + options_.universal_size_ratio_percent) / 100;
    if (static_cast<int64_t>(f->file_size) > limit) {
      break;  // next (older) run is too large relative to the prefix
    }
    picked.push_back(f);
    accumulated += static_cast<int64_t>(f->file_size);
  }

  // Bound the number of outstanding sorted runs: extend the merge past
  // the ratio rule until the post-merge run count fits.
  while (static_cast<int>(newest_first.size() - picked.size()) + 1 >
             options_.universal_max_sorted_runs &&
         picked.size() < newest_first.size()) {
    picked.push_back(newest_first[picked.size()]);
  }

  // Guarantee progress whenever the trigger fired (a null pick here
  // with NeedsCompaction() still true would spin the scheduler).
  if (picked.size() < 2) {
    picked.assign(newest_first.begin(), newest_first.begin() + 2);
  }

  Compaction* c = new Compaction(options_, 0, 0);
  // Universal outputs one large run; do not cap output file size.
  c->max_output_file_size_ = UINT64_MAX;
  c->inputs_[0] = picked;
  c->input_version_ = current_;
  c->input_version_->Ref();
  // Dropping tombstones is safe only when every run participates.
  c->bottommost_ = picked.size() == files.size();
  return c;
}

Compaction* VersionSet::PickFifoCompaction() {
  // FIFO: never merge; evict the oldest files once the total size
  // exceeds the budget.
  const std::vector<FileMetaData*>& files = current_->files_[0];
  int64_t total = 0;
  for (const FileMetaData* f : files) {
    total += static_cast<int64_t>(f->file_size);
  }
  if (total <= static_cast<int64_t>(options_.fifo_max_table_files_size) ||
      files.empty()) {
    return nullptr;
  }

  std::vector<FileMetaData*> sorted = files;
  std::sort(sorted.begin(), sorted.end(),
            [](FileMetaData* a, FileMetaData* b) {
              if (a->largest_seq != b->largest_seq) {
                return a->largest_seq < b->largest_seq;
              }
              return a->number < b->number;
            });

  Compaction* c = new Compaction(options_, 0, 0);
  c->deletion_only_ = true;
  c->input_version_ = current_;
  c->input_version_->Ref();
  for (FileMetaData* f : sorted) {
    if (total <= static_cast<int64_t>(options_.fifo_max_table_files_size)) {
      break;
    }
    c->inputs_[0].push_back(f);
    total -= static_cast<int64_t>(f->file_size);
  }
  return c;
}

void VersionSet::LimitManualInputs(int level, int output_level,
                                   std::vector<FileMetaData*>* inputs) {
  // A job's inputs stay live until its outputs install, so the job
  // holds its bytes twice. Like RocksDB's max_compaction_bytes, the
  // bound counts the files it merges into at the output level too.
  const uint64_t limit = 10 * options_.target_file_size_base;
  uint64_t total = 0;
  for (size_t n = 0; n < inputs->size(); n++) {
    total += (*inputs)[n]->file_size;
    uint64_t overlap_bytes = 0;
    if (output_level != level) {
      std::vector<FileMetaData*> overlap;
      current_->GetOverlappingInputs(output_level, &(*inputs)[0]->smallest,
                                     &(*inputs)[n]->largest, &overlap);
      for (const FileMetaData* f : overlap) {
        overlap_bytes += f->file_size;
      }
    }
    if (n > 0 && total + overlap_bytes > limit) {
      inputs->resize(n);
      return;
    }
  }
}

Compaction* VersionSet::CompactRange(int level, const InternalKey* begin,
                                     const InternalKey* end) {
  std::vector<FileMetaData*> inputs;
  current_->GetOverlappingInputs(level, begin, end, &inputs);
  if (inputs.empty()) {
    return nullptr;
  }
  if (options_.compaction_style != CompactionStyle::kLeveled) {
    Compaction* c = new Compaction(options_, level, 0);
    c->input_version_ = current_;
    c->input_version_->Ref();
    c->inputs_[0] = inputs;
    c->max_output_file_size_ = UINT64_MAX;
    c->bottommost_ = inputs.size() == current_->files_[0].size();
    return c;
  }

  assert(level < num_levels_ - 1);
  const int output_level = level == 0 ? current_->base_level_ : level + 1;
  if (level > 0) {
    LimitManualInputs(level, output_level, &inputs);
  }
  Compaction* c = new Compaction(options_, level, output_level);
  c->input_version_ = current_;
  c->input_version_->Ref();
  c->inputs_[0] = inputs;
  SetupOtherInputs(c);
  return c;
}

Compaction* VersionSet::CompactRangeInPlace(int level,
                                            const InternalKey* begin,
                                            const InternalKey* end,
                                            uint64_t before_number) {
  assert(level > 0);
  std::vector<FileMetaData*> overlapping;
  current_->GetOverlappingInputs(level, begin, end, &overlapping);
  // The run must be adjacent in key order: outputs replace the inputs
  // in the level, so skipping a newer file would make them overlap it.
  std::vector<FileMetaData*> inputs;
  for (FileMetaData* f : overlapping) {
    if (f->number < before_number) {
      inputs.push_back(f);
    } else if (!inputs.empty()) {
      break;
    }
  }
  if (inputs.empty()) {
    return nullptr;
  }
  LimitManualInputs(level, level, &inputs);
  Compaction* c = new Compaction(options_, level, level);
  c->input_version_ = current_;
  c->input_version_->Ref();
  c->inputs_[0] = inputs;
  SetupOtherInputs(c);
  return c;
}

Compaction* VersionSet::CompactFileInPlace(uint64_t number) {
  for (int level = 0; level < num_levels_; level++) {
    for (FileMetaData* f : current_->files_[level]) {
      if (f->number != number) {
        continue;
      }
      Compaction* c = new Compaction(options_, level, level);
      // One file in, one file out, whatever its size.
      c->max_output_file_size_ = UINT64_MAX;
      c->input_version_ = current_;
      c->input_version_->Ref();
      c->inputs_[0].push_back(f);
      c->bottommost_ =
          !DataBelow(c, f->smallest.user_key(), f->largest.user_key());
      return c;
    }
  }
  return nullptr;
}

}  // namespace shield
