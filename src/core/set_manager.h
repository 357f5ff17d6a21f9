// SetManager — bookkeeping for the paper's *sets* (Sec. III-A).
//
// A set is the group of SSTables produced by one compaction and stored
// contiguously in one FileStore region. The manager tracks, per set:
//   * how many member SSTables it was created with,
//   * how many have since been invalidated (consumed by later compactions),
// which drives two paper behaviours:
//   * victim priority: compact the victim whose set has the most invalid
//     members ("SEALDB gives priority to compact the set with more invalid
//     SSTables, hence fragments can be recycled implicitly"), and
//   * set-granular space reclamation (enforced by FileStore regions).
//
// Thread safety: all calls are made under the owning DB's mutex.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "lsm/version_set.h"

namespace sealdb::core {

class SetManager : public SetInfoProvider {
 public:
  SetManager() = default;
  ~SetManager() override = default;

  SetManager(const SetManager&) = delete;
  SetManager& operator=(const SetManager&) = delete;

  // Register a freshly written set: the region id doubles as the set id.
  void RegisterSet(uint64_t set_id, const std::vector<uint64_t>& files);

  // Rebuild after recovery from the surviving files of a version. Invalid
  // counts restart at zero (the information is reconstructible only from
  // future compactions; space safety is unaffected because FileStore
  // regions track occupancy independently).
  void RecoverSet(uint64_t set_id, uint64_t file_number);

  // A member table died (its data was merged away). Removes the set once
  // every member is gone.
  void OnFileDeleted(uint64_t file_number);

  // SetInfoProvider: invalid members recorded in a set.
  int InvalidCount(uint64_t set_id) const override;

  size_t live_sets() const { return sets_.size(); }

 private:
  struct SetInfo {
    int total = 0;
    int invalid = 0;
  };

  std::map<uint64_t, SetInfo> sets_;
  std::unordered_map<uint64_t, uint64_t> file_to_set_;
};

}  // namespace sealdb::core
