#include "core/set_manager.h"

namespace sealdb::core {

void SetManager::RegisterSet(uint64_t set_id,
                             const std::vector<uint64_t>& files) {
  if (set_id == 0 || files.empty()) return;
  sets_[set_id].total += static_cast<int>(files.size());
  for (uint64_t f : files) {
    file_to_set_[f] = set_id;
  }
}

void SetManager::RecoverSet(uint64_t set_id, uint64_t file_number) {
  if (set_id == 0) return;
  sets_[set_id].total += 1;
  file_to_set_[file_number] = set_id;
}

void SetManager::OnFileDeleted(uint64_t file_number) {
  auto it = file_to_set_.find(file_number);
  if (it == file_to_set_.end()) return;
  const uint64_t set_id = it->second;
  file_to_set_.erase(it);
  auto sit = sets_.find(set_id);
  if (sit == sets_.end()) return;
  sit->second.invalid++;
  if (sit->second.invalid >= sit->second.total) {
    // The whole set faded; its region is reclaimed by the FileStore.
    sets_.erase(sit);
  }
}

int SetManager::InvalidCount(uint64_t set_id) const {
  auto it = sets_.find(set_id);
  return it == sets_.end() ? 0 : it->second.invalid;
}

}  // namespace sealdb::core
