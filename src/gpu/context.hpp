#pragma once

// Explicit execution resources for the assembly pipeline.
//
// The paper's implementation is defined by its execution resources —
// multiple in-order streams, a blocking temporary-memory pool, and
// per-subdomain concurrency (Sections IV / IV-A). ExecutionContext makes
// those resources a first-class, passed-in object: a device handle, a
// sized pool of worker streams plus one dedicated main stream, and the
// temporary-pool (workspace) policy. Operators receive a context instead
// of reaching for a process-global device and hand-rolling their own
// stream vectors.
//
// DevicePool is the solver service's tenant pool: N virtual devices, one
// ExecutionContext per shard, and leases that steer concurrent tenants to
// different devices. Each dual operator runs on exactly one of them.

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "gpu/runtime.hpp"
#include "util/common.hpp"

namespace feti::gpu {

/// One device's execution resources: the device handle, a lazily grown
/// pool of worker streams plus a dedicated main stream (cluster-wide
/// scatter/gather and H2D/D2H traffic), and the temporary-pool workspace
/// policy. Contexts may be shared by several operators; streams are cheap
/// shared handles and the workspace initialization is idempotent.
class ExecutionContext {
 public:
  /// Upper bound on worker streams per context (previously each operator
  /// carried its own clamp_streams copy).
  static constexpr int kMaxStreams = 32;
  /// Clamps a requested worker-stream count to [1, kMaxStreams].
  static int clamp_streams(int requested);

  /// Non-owning context over an externally managed device.
  explicit ExecutionContext(Device& device);
  /// Owning context: creates a private device from `cfg`.
  explicit ExecutionContext(DeviceConfig cfg);

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  [[nodiscard]] Device& device() const { return *device_; }

  /// The dedicated main stream (created on first use).
  Stream main_stream();
  /// The first clamp_streams(requested) worker streams of the pool,
  /// growing the pool as needed. Returns handles; two operators asking for
  /// overlapping counts share the underlying streams.
  std::vector<Stream> stream_span(int requested);
  /// Worker streams created so far (excluding the main stream).
  [[nodiscard]] int pooled_streams() const;

  /// Workspace (temporary-pool) policy. ensure_workspace() lazily reserves
  /// the device's configured pool fraction and is safe to call repeatedly;
  /// init_workspace() dedicates all remaining device memory (minus
  /// `reserve`) and may be called once, before any ensure_workspace().
  void ensure_workspace();
  void init_workspace(std::size_t reserve = 0);
  [[nodiscard]] TempAllocator& workspace();

  /// Blocks until every stream of the underlying device drains.
  void synchronize();

 private:
  std::unique_ptr<Device> owned_;  ///< set only for owning contexts
  Device* device_;
  mutable std::mutex mutex_;
  Stream main_;
  std::vector<Stream> pool_;
};

/// N virtual devices with per-shard ExecutionContexts — the solver
/// service's tenant pool, which puts distinct tenants on distinct devices.
class DevicePool {
 public:
  /// Creates `num_shards` devices, each configured with `per_shard_cfg`
  /// (see split_config to derive it from a single-device budget).
  DevicePool(int num_shards, const DeviceConfig& per_shard_cfg);

  DevicePool(const DevicePool&) = delete;
  DevicePool& operator=(const DevicePool&) = delete;

  [[nodiscard]] std::size_t size() const { return contexts_.size(); }
  [[nodiscard]] ExecutionContext& context(std::size_t shard);
  [[nodiscard]] Device& device(std::size_t shard);

  /// RAII shard checkout for schedulers that multiplex independent work
  /// units over the pool (the service layer's workers). A lease is an
  /// accounting handle, not a lock: several leases may target one shard
  /// (streams serialize within the context), but acquire() steers new work
  /// to the least-loaded shard so concurrent tenants land on different
  /// devices and their update_values()/apply() phases overlap. The lease
  /// returns its shard on destruction (checkout/return discipline).
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept { swap(other); }
    Lease& operator=(Lease&& other) noexcept {
      release();
      swap(other);
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    [[nodiscard]] bool valid() const { return pool_ != nullptr; }
    [[nodiscard]] std::size_t shard() const { return shard_; }
    [[nodiscard]] ExecutionContext& context() { return pool_->context(shard_); }

    /// Early return of the shard (idempotent; the destructor is a no-op
    /// afterwards).
    void release();

   private:
    friend class DevicePool;
    Lease(DevicePool* pool, std::size_t shard) : pool_(pool), shard_(shard) {}
    void swap(Lease& other) {
      std::swap(pool_, other.pool_);
      std::swap(shard_, other.shard_);
    }
    DevicePool* pool_ = nullptr;
    std::size_t shard_ = 0;
  };

  /// Checks out the shard with the fewest active leases (ties broken by
  /// the lowest shard index, so single-tenant runs stay on shard 0).
  [[nodiscard]] Lease acquire();
  /// Checks out a specific shard — used when work is pinned to the shard
  /// that holds its persistent state (a pooled operator's device buffers).
  [[nodiscard]] Lease acquire(std::size_t shard);
  /// Leases currently outstanding against `shard`.
  [[nodiscard]] int active_leases(std::size_t shard) const;

  /// Synchronizes every shard.
  void synchronize();

  /// Divides a single-device budget across `num_shards` virtual devices:
  /// worker threads and memory are split evenly (each shard keeps at least
  /// one worker), launch latency and pool fraction are inherited.
  static DeviceConfig split_config(DeviceConfig total, int num_shards);

 private:
  std::vector<std::unique_ptr<ExecutionContext>> contexts_;
  mutable std::mutex lease_mutex_;
  std::vector<int> active_leases_;  ///< per-shard outstanding lease counts
};

}  // namespace feti::gpu
