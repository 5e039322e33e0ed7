#include "gpu/context.hpp"

#include <algorithm>
#include <thread>

namespace feti::gpu {

// ---------------------------------------------------------------------------
// ExecutionContext
// ---------------------------------------------------------------------------

int ExecutionContext::clamp_streams(int requested) {
  return std::max(1, std::min(requested, kMaxStreams));
}

ExecutionContext::ExecutionContext(Device& device) : device_(&device) {}

ExecutionContext::ExecutionContext(DeviceConfig cfg)
    : owned_(std::make_unique<Device>(cfg)), device_(owned_.get()) {}

Stream ExecutionContext::main_stream() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!main_.valid()) main_ = device_->create_stream();
  return main_;
}

std::vector<Stream> ExecutionContext::stream_span(int requested) {
  const int n = clamp_streams(requested);
  std::lock_guard<std::mutex> lock(mutex_);
  while (static_cast<int>(pool_.size()) < n)
    pool_.push_back(device_->create_stream());
  return {pool_.begin(), pool_.begin() + n};
}

int ExecutionContext::pooled_streams() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(pool_.size());
}

void ExecutionContext::ensure_workspace() { device_->ensure_temp_pool(); }

void ExecutionContext::init_workspace(std::size_t reserve) {
  device_->init_temp_pool(reserve);
}

TempAllocator& ExecutionContext::workspace() { return device_->temp(); }

void ExecutionContext::synchronize() { device_->synchronize(); }

// ---------------------------------------------------------------------------
// DevicePool
// ---------------------------------------------------------------------------

DevicePool::DevicePool(int num_shards, const DeviceConfig& per_shard_cfg) {
  check(num_shards >= 1, "DevicePool: need at least one shard");
  contexts_.reserve(static_cast<std::size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i)
    contexts_.push_back(std::make_unique<ExecutionContext>(per_shard_cfg));
}

ExecutionContext& DevicePool::context(std::size_t shard) {
  check(shard < contexts_.size(), "DevicePool::context: shard out of range");
  return *contexts_[shard];
}

Device& DevicePool::device(std::size_t shard) {
  return context(shard).device();
}

void DevicePool::synchronize() {
  for (auto& ctx : contexts_) ctx->synchronize();
}

void DevicePool::Lease::release() {
  if (pool_ == nullptr) return;
  std::lock_guard<std::mutex> lock(pool_->lease_mutex_);
  --pool_->active_leases_[shard_];
  pool_ = nullptr;
}

DevicePool::Lease DevicePool::acquire() {
  std::lock_guard<std::mutex> lock(lease_mutex_);
  if (active_leases_.size() != contexts_.size())
    active_leases_.assign(contexts_.size(), 0);
  std::size_t best = 0;
  for (std::size_t s = 1; s < active_leases_.size(); ++s)
    if (active_leases_[s] < active_leases_[best]) best = s;
  ++active_leases_[best];
  return Lease(this, best);
}

DevicePool::Lease DevicePool::acquire(std::size_t shard) {
  check(shard < contexts_.size(), "DevicePool::acquire: shard out of range");
  std::lock_guard<std::mutex> lock(lease_mutex_);
  if (active_leases_.size() != contexts_.size())
    active_leases_.assign(contexts_.size(), 0);
  ++active_leases_[shard];
  return Lease(this, shard);
}

int DevicePool::active_leases(std::size_t shard) const {
  check(shard < contexts_.size(),
        "DevicePool::active_leases: shard out of range");
  std::lock_guard<std::mutex> lock(lease_mutex_);
  return shard < active_leases_.size() ? active_leases_[shard] : 0;
}

DeviceConfig DevicePool::split_config(DeviceConfig total, int num_shards) {
  check(num_shards >= 1, "DevicePool::split_config: need at least one shard");
  int workers = total.worker_threads;
  if (workers <= 0)
    workers = static_cast<int>(std::thread::hardware_concurrency());
  total.worker_threads = std::max(1, workers / num_shards);
  total.memory_bytes =
      std::max<std::size_t>(total.memory_bytes / num_shards, 1u << 20);
  return total;
}

}  // namespace feti::gpu
