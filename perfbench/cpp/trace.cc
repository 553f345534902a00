#include "trace.h"

#include <cstdio>

namespace perfbench {

const char* SpanName(SpanKind kind) {
  static constexpr const char* kNames[] = {
      "op.get",      "op.retrieve",    "op.update",   "stage.plan",
      "stage.collect", "stage.heads",  "stage.replicas", "stage.joins",
      "stage.output", "device.read",   "device.write", "device.sync",
      "log.read",    "log.write",      "log.sync",
  };
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                static_cast<size_t>(SpanKind::kCount));
  return kNames[static_cast<size_t>(kind)];
}

bool IsOpKind(SpanKind kind) { return kind <= SpanKind::kUpdate; }

SpanKind StageSpanKind(const std::string& stage) {
  for (size_t k = static_cast<size_t>(SpanKind::kStagePlan);
       k <= static_cast<size_t>(SpanKind::kStageOutput); ++k) {
    // Stage span names are "stage." + the QueryTrace stage name.
    if (stage == SpanName(static_cast<SpanKind>(k)) + 6) {
      return static_cast<SpanKind>(k);
    }
  }
  return SpanKind::kCount;
}

bool SpanRecorder::WriteTsv(const std::string& path, uint64_t origin_ns) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // Children are recorded before their op's root span closes, so map op ids
  // to root span ids first.
  std::vector<int64_t> root(1, -1);
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (!IsOpKind(spans_[i].kind)) continue;
    if (root.size() <= spans_[i].op) root.resize(spans_[i].op + 1, -1);
    root[spans_[i].op] = static_cast<int64_t>(i);
  }
  std::fprintf(f, "span\top\tparent\tname\tstart_ns\tend_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    int64_t parent = -1;
    if (!IsOpKind(s.kind) && s.op < root.size()) parent = root[s.op];
    std::fprintf(f, "%zu\t%u\t%lld\t%s\t%llu\t%llu\n", i, s.op,
                 static_cast<long long>(parent), SpanName(s.kind),
                 static_cast<unsigned long long>(s.start_ns - origin_ns),
                 static_cast<unsigned long long>(s.end_ns - origin_ns));
  }
  return std::fclose(f) == 0;
}

template <typename Fn>
fieldrep::Status TimingDevice::Timed(SpanKind kind, Fn&& fn) {
  if (!recorder_->enabled()) return fn();
  const uint32_t op = recorder_->current_op();
  const uint64_t start = NowNs();
  fieldrep::Status s = fn();
  recorder_->Add(kind, op, start, NowNs());
  return s;
}

fieldrep::Status TimingDevice::ReadPage(fieldrep::PageId page_id, void* buf) {
  pages_read_.fetch_add(1, std::memory_order_relaxed);
  return Timed(log_ ? SpanKind::kLogRead : SpanKind::kDataRead,
               [&] { return inner_->ReadPage(page_id, buf); });
}

fieldrep::Status TimingDevice::WritePage(fieldrep::PageId page_id,
                                         const void* buf) {
  pages_written_.fetch_add(1, std::memory_order_relaxed);
  return Timed(log_ ? SpanKind::kLogWrite : SpanKind::kDataWrite,
               [&] { return inner_->WritePage(page_id, buf); });
}

fieldrep::Status TimingDevice::ReadPages(
    std::span<const fieldrep::PageId> page_ids,
    std::span<uint8_t* const> bufs) {
  pages_read_.fetch_add(page_ids.size(), std::memory_order_relaxed);
  return Timed(log_ ? SpanKind::kLogRead : SpanKind::kDataRead,
               [&] { return inner_->ReadPages(page_ids, bufs); });
}

fieldrep::Status TimingDevice::WritePages(
    std::span<const fieldrep::PageId> page_ids,
    std::span<const uint8_t* const> bufs) {
  pages_written_.fetch_add(page_ids.size(), std::memory_order_relaxed);
  return Timed(log_ ? SpanKind::kLogWrite : SpanKind::kDataWrite,
               [&] { return inner_->WritePages(page_ids, bufs); });
}

fieldrep::Status TimingDevice::Sync() {
  return Timed(log_ ? SpanKind::kLogSync : SpanKind::kDataSync,
               [&] { return inner_->Sync(); });
}

}  // namespace perfbench
