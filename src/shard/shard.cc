#include "src/shard/shard.h"

#include <utility>

#include "dynmis/registry.h"
#include "src/util/check.h"

namespace dynmis {

bool Shard::BuildMaintainer(const MaintainerConfig& config) {
  maintainer_ = MaintainerRegistry::Global().Create(config, &graph_);
  return maintainer_ != nullptr;
}

void Shard::Start() {
  DYNMIS_CHECK(maintainer_ != nullptr);
  DYNMIS_CHECK(!started_);
  started_ = true;
  thread_ = std::thread([this] { Loop(); });
}

void Shard::Stop() {
  if (!started_) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Command stop;
    stop.kind = Command::Kind::kStop;
    queue_.push_back(std::move(stop));
  }
  work_cv_.notify_one();
  thread_.join();
  started_ = false;
  queue_.clear();
  busy_ = false;
}

void Shard::Post(Block block) {
  DYNMIS_CHECK(started_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Command command;
    command.kind = Command::Kind::kBlock;
    command.block = std::move(block);
    queue_.push_back(std::move(command));
  }
  work_cv_.notify_one();
}

void Shard::PostInitialize() {
  DYNMIS_CHECK(started_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Command command;
    command.kind = Command::Kind::kInitialize;
    queue_.push_back(std::move(command));
  }
  work_cv_.notify_one();
}

void Shard::WaitIdle() {
  if (!started_) return;
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && !busy_; });
}

void Shard::Loop() {
  for (;;) {
    Command command;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return !queue_.empty(); });
      command = std::move(queue_.front());
      queue_.pop_front();
      busy_ = true;
    }
    const bool stop = command.kind == Command::Kind::kStop;
    if (!stop) Execute(command);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      busy_ = false;
      if (queue_.empty()) idle_cv_.notify_all();
    }
    if (stop) return;
  }
}

void Shard::Execute(Command& command) {
  if (command.kind == Command::Kind::kInitialize) {
    maintainer_->Initialize({});
    return;
  }
  Block& block = command.block;
  size_t next_insert = 0;
  for (const GraphUpdate& update : block.updates) {
    if (update.kind == UpdateKind::kInsertVertex) {
      // Queued per op, not up front: an earlier op in this very block may
      // be the delete that frees the id this insert recycles.
      DYNMIS_CHECK(next_insert < block.insert_ids.size());
      graph_.QueueVertexId(block.insert_ids[next_insert]);
    }
    const VertexId v = maintainer_->Apply(update);
    if (update.kind == UpdateKind::kInsertVertex) {
      DYNMIS_DCHECK(v == block.insert_ids[next_insert]);
      (void)v;
      ++next_insert;
    }
  }
  DYNMIS_DCHECK(next_insert == block.insert_ids.size());
}

}  // namespace dynmis
