// Span recording and the counting/timing device decorator of the
// benchmark. Everything here sits outside the engine: spans are opened
// around the calls the benchmark makes into fieldrep's public API, and
// device spans come from a StorageDevice decorator handed to
// Database::Options::device / wal_device.
#ifndef FIELDREP_PERFBENCH_TRACE_H_
#define FIELDREP_PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "storage/storage_device.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// What a span covers. Op kinds are the public calls; stage kinds come from
/// QueryTrace; device kinds come from TimingDevice.
enum class SpanKind : uint8_t {
  kGet,
  kRetrieve,
  kUpdate,
  kStagePlan,
  kStageCollect,
  kStageHeads,
  kStageReplicas,
  kStageJoins,
  kStageOutput,
  kDataRead,
  kDataWrite,
  kDataSync,
  kLogRead,
  kLogWrite,
  kLogSync,
  kCount,
};

const char* SpanName(SpanKind kind);
bool IsOpKind(SpanKind kind);
/// The span kind of a QueryTrace stage name; kCount for unknown stages.
SpanKind StageSpanKind(const std::string& stage);

/// One closed span. `op` is the id shared by every span of one operation;
/// the op's own span is its root, every other span of that op is a direct
/// child of it.
struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t op = 0;
  SpanKind kind = SpanKind::kGet;
};

/// \brief In-memory span store, written out once when the run ends.
///
/// Disabled recorders drop every span, so the untraced run pays one
/// branch per device call. Device spans are attributed to the op in
/// flight (the benchmark has one client thread, so exactly one op is in
/// flight when an executor worker issues I/O on its behalf).
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 20);
  }

  bool enabled() const { return enabled_; }

  void BeginOp(uint32_t op) { current_op_.store(op, std::memory_order_relaxed); }
  uint32_t current_op() const {
    return current_op_.load(std::memory_order_relaxed);
  }

  void Add(SpanKind kind, uint32_t op, uint64_t start_ns, uint64_t end_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{start_ns, end_ns, op, kind});
  }

  /// Spans recorded so far (call only when no op is in flight).
  const std::vector<Span>& spans() const { return spans_; }
  void Clear() { spans_.clear(); }

  /// Writes one tab-separated line per span: span id, op id, parent span
  /// id (-1 for an op's root span), name, start and end in ns since
  /// `origin_ns`.
  bool WriteTsv(const std::string& path, uint64_t origin_ns) const;

 private:
  const bool enabled_;
  std::atomic<uint32_t> current_op_{0};
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// \brief StorageDevice decorator that counts pages moved (always) and,
/// when its recorder is enabled, records one span per device call.
class TimingDevice : public fieldrep::StorageDevice {
 public:
  /// `log` selects the log-device span kinds. The inner device must
  /// outlive this decorator.
  TimingDevice(fieldrep::StorageDevice* inner, bool log,
               SpanRecorder* recorder)
      : inner_(inner), log_(log), recorder_(recorder) {}

  fieldrep::Status ReadPage(fieldrep::PageId page_id, void* buf) override;
  fieldrep::Status WritePage(fieldrep::PageId page_id,
                             const void* buf) override;
  fieldrep::Status ReadPages(std::span<const fieldrep::PageId> page_ids,
                             std::span<uint8_t* const> bufs) override;
  fieldrep::Status WritePages(std::span<const fieldrep::PageId> page_ids,
                              std::span<const uint8_t* const> bufs) override;
  fieldrep::Status AllocatePage(fieldrep::PageId* page_id) override {
    return inner_->AllocatePage(page_id);
  }
  fieldrep::Status Sync() override;
  uint32_t page_count() const override { return inner_->page_count(); }

  uint64_t pages_read() const { return pages_read_.load(); }
  uint64_t pages_written() const { return pages_written_.load(); }

 private:
  template <typename Fn>
  fieldrep::Status Timed(SpanKind kind, Fn&& fn);

  fieldrep::StorageDevice* inner_;
  const bool log_;
  SpanRecorder* recorder_;
  std::atomic<uint64_t> pages_read_{0};
  std::atomic<uint64_t> pages_written_{0};
};

}  // namespace perfbench

#endif  // FIELDREP_PERFBENCH_TRACE_H_
