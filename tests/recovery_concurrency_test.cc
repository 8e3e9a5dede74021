// Concurrent-append test: RecoveryManager::AppendBatch may be called from
// several threads at once, and append_mu_ must turn those calls into one
// contiguous log that keeps each thread's order. This is the suite's TSan
// target for the append path.

#include <gtest/gtest.h>

#include <barrier>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "storage/codec.h"
#include "tests/test_util.h"
#include "wal/file.h"
#include "wal/recovery.h"
#include "wal/wal_reader.h"

namespace rtic {
namespace wal {
namespace {

using ::rtic::testing::I;
using ::rtic::testing::T;
using ::rtic::testing::Unwrap;

std::string MakeTempDir() {
  char tmpl[] = "/tmp/rtic_recovery_concurrency_XXXXXX";
  char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string() : std::string(dir);
}

/// Batch (thread, i): a one-insert batch whose timestamp encodes its origin,
/// so the WAL contents can be mapped back to per-thread order.
UpdateBatch ThreadBatch(std::size_t thread, std::size_t i) {
  UpdateBatch batch(static_cast<Timestamp>(thread * 1000 + i + 1));
  batch.Insert("Emp", T(I(static_cast<std::int64_t>(thread)),
                        I(static_cast<std::int64_t>(i))));
  return batch;
}

std::string Encoded(const UpdateBatch& batch) {
  StateWriter w;
  batch.EncodeTo(&w);
  return w.str();
}

/// ReplayTarget that accepts everything; these tests drive the manager's
/// append path, not replay.
class NullTarget final : public ReplayTarget {
 public:
  Status RestoreCheckpoint(const std::string&) override {
    return Status::OK();
  }
  Status Replay(const UpdateBatch&) override { return Status::OK(); }
  Result<std::string> CaptureCheckpoint() override {
    return std::string("ckpt");
  }
};

// Many threads hammer AppendBatch concurrently. Every acked batch must be
// in the log exactly once, sequence numbers must be contiguous from 1, and
// each thread's own batches must appear in its submission order.
TEST(RecoveryManagerTest, ConcurrentAppendersProduceOneContiguousLog) {
  const std::string dir = MakeTempDir() + "/wal";
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 25;

  WalOptions options;
  options.dir = dir;
  options.sync_policy = SyncPolicy::kAlways;
  options.checkpoint_interval = 0;  // appends only; no checkpoint races
  NullTarget target;
  {
    auto manager = Unwrap(RecoveryManager::Open(options, &target));
    std::barrier start(kThreads);
    std::vector<Status> results(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        for (std::size_t i = 0; i < kPerThread; ++i) {
          Status s = manager->AppendBatch(ThreadBatch(t, i));
          if (!s.ok()) {
            results[t] = s;
            return;
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    for (const Status& s : results) RTIC_EXPECT_OK(s);

    EXPECT_EQ(manager->last_seq(), kThreads * kPerThread);
  }

  // Map every logged payload back to (thread, index) and check the log is
  // a contiguous interleaving that preserves each thread's order.
  std::map<std::string, std::pair<std::size_t, std::size_t>> origin;
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kPerThread; ++i) {
      origin[Encoded(ThreadBatch(t, i))] = {t, i};
    }
  }
  std::unique_ptr<WalReader> reader = Unwrap(WalReader::Open(DefaultFs(), dir));
  WalReader::Record rec;
  std::uint64_t expected_seq = 0;
  std::vector<std::size_t> next_index(kThreads, 0);
  while (Unwrap(reader->Next(&rec))) {
    EXPECT_EQ(rec.seq, ++expected_seq);
    auto it = origin.find(rec.payload);
    ASSERT_NE(it, origin.end()) << "unknown payload at seq " << rec.seq;
    const auto [t, i] = it->second;
    EXPECT_EQ(i, next_index[t]) << "thread " << t << " order broken";
    ++next_index[t];
    origin.erase(it);
  }
  EXPECT_FALSE(reader->damage().has_value());
  EXPECT_EQ(expected_seq, kThreads * kPerThread);
  EXPECT_TRUE(origin.empty()) << origin.size() << " batches never logged";
}

}  // namespace
}  // namespace wal
}  // namespace rtic
