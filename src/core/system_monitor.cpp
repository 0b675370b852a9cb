#include "core/system_monitor.hpp"

#include <algorithm>
#include <sstream>

namespace qon::core {

SystemMonitor::SystemMonitor(bool replicated, std::size_t replicas) {
  if (replicated) store_ = std::make_unique<raft::ReplicatedKvStore>(replicas);
}

bool SystemMonitor::put_unlocked(const std::string& key, const std::string& value) {
  if (store_) return store_->set(key, value);
  local_[key] = value;
  return true;
}

std::optional<std::string> SystemMonitor::get_unlocked(const std::string& key) const {
  if (store_) return store_->get(key);
  const auto it = local_.find(key);
  if (it == local_.end()) return std::nullopt;
  return it->second;
}

bool SystemMonitor::put(const std::string& key, const std::string& value) {
  MutexLock lock(mutex_);
  return put_unlocked(key, value);
}

std::optional<std::string> SystemMonitor::get(const std::string& key) const {
  MutexLock lock(mutex_);
  return get_unlocked(key);
}

bool SystemMonitor::erase(const std::string& key) {
  MutexLock lock(mutex_);
  if (store_) return store_->erase(key);
  local_.erase(key);
  return true;
}

namespace {

std::string serialize_qpu(const QpuInfo& info) {
  std::ostringstream oss;
  oss << info.qubits << "|" << info.queue_length << "|" << info.queue_wait_seconds << "|"
      << info.mean_gate_error_2q << "|" << info.calibration_cycle << "|"
      << (info.online ? 1 : 0) << "|" << (info.reserved ? 1 : 0);
  return oss.str();
}

std::optional<QpuInfo> deserialize_qpu(const std::string& name, const std::string& data) {
  QpuInfo info;
  info.name = name;
  char sep = 0;
  int online = 1;
  std::istringstream in(data);
  if (!(in >> info.qubits >> sep >> info.queue_length >> sep >> info.queue_wait_seconds >>
        sep >> info.mean_gate_error_2q >> sep >> info.calibration_cycle >> sep >> online)) {
    return std::nullopt;
  }
  info.online = online != 0;
  // Trailing reservation flag; absent in pre-reservation records.
  int reserved = 0;
  if (in >> sep >> reserved) info.reserved = reserved != 0;
  return info;
}

}  // namespace

void SystemMonitor::update_qpu(const QpuInfo& info) {
  MutexLock lock(mutex_);
  if (std::find(qpu_names_.begin(), qpu_names_.end(), info.name) == qpu_names_.end()) {
    qpu_names_.push_back(info.name);
  }
  put_unlocked("qpu/" + info.name, serialize_qpu(info));
}

void SystemMonitor::publish_qpu_dynamic(const QpuInfo& info) {
  MutexLock lock(mutex_);
  if (std::find(qpu_names_.begin(), qpu_names_.end(), info.name) == qpu_names_.end()) {
    qpu_names_.push_back(info.name);
  }
  QpuInfo merged = info;
  if (const auto raw = get_unlocked("qpu/" + info.name)) {
    if (const auto previous = deserialize_qpu(info.name, *raw)) {
      // Health and reservation belong to set_qpu_online/set_qpu_reserved;
      // republishing dynamic state must not flip either.
      merged.online = previous->online;
      merged.reserved = previous->reserved;
    }
  }
  put_unlocked("qpu/" + info.name, serialize_qpu(merged));
}

std::optional<bool> SystemMonitor::set_qpu_online(const std::string& name, bool online) {
  MutexLock lock(mutex_);
  const auto raw = get_unlocked("qpu/" + name);
  if (!raw) return std::nullopt;
  auto info = deserialize_qpu(name, *raw);
  if (!info) return std::nullopt;
  const bool previous = info->online;
  info->online = online;
  put_unlocked("qpu/" + name, serialize_qpu(*info));
  return previous;
}

std::optional<bool> SystemMonitor::set_qpu_reserved(const std::string& name, bool reserved) {
  MutexLock lock(mutex_);
  const auto raw = get_unlocked("qpu/" + name);
  if (!raw) return std::nullopt;
  auto info = deserialize_qpu(name, *raw);
  if (!info) return std::nullopt;
  const bool previous = info->reserved;
  info->reserved = reserved;
  put_unlocked("qpu/" + name, serialize_qpu(*info));
  return previous;
}

std::optional<QpuInfo> SystemMonitor::qpu(const std::string& name) const {
  std::optional<std::string> raw;
  {
    MutexLock lock(mutex_);
    raw = get_unlocked("qpu/" + name);
  }
  if (!raw) return std::nullopt;
  return deserialize_qpu(name, *raw);
}

std::vector<std::string> SystemMonitor::qpu_names() const {
  MutexLock lock(mutex_);
  return qpu_names_;
}

}  // namespace qon::core
