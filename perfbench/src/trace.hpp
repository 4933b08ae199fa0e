#pragma once
// Spans recorded around the benchmark's own calls into the program, kept
// in memory and written at the end as Chrome trace-event JSON, one file
// per rank (open it in Perfetto or chrome://tracing). Spans inside the
// program are not recorded.

#include <chrono>
#include <cstdio>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Taken during static initialisation, i.e. as close to the start of the
/// process as a program can see.
inline const Clock::time_point kProcessStart = Clock::now();

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int rank = 0;
    int thread = 0;
    int id = 0;
    int parent = -1;  ///< id of the enclosing span on the same thread
  };

  /// Closes its span when it goes out of scope.
  class Scope {
   public:
    Scope() = default;
    Scope(Tracer* tracer, int id) : tracer_(tracer), id_(id) {}
    Scope(Scope&& o) noexcept : tracer_(o.tracer_), id_(o.id_) {
      o.tracer_ = nullptr;
    }
    Scope& operator=(Scope&& o) noexcept {
      if (this != &o) {
        if (tracer_ != nullptr) tracer_->close(id_);
        tracer_ = o.tracer_;
        id_ = o.id_;
        o.tracer_ = nullptr;
      }
      return *this;
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(id_);
    }

   private:
    Tracer* tracer_ = nullptr;
    int id_ = -1;
  };

  bool enabled = false;
  /// Rank of spans opened outside any other span with rank -1.
  int default_rank = 0;

  /// Open a span on the calling thread (a no-op when disabled). `rank` is
  /// the rank the work belongs to; -1 inherits the enclosing span's.
  [[nodiscard]] Scope span(const std::string& name, int rank = -1) {
    if (!enabled) return {};
    const double now = now_us();
    std::lock_guard<std::mutex> lock(mutex_);
    ThreadState& ts = thread_state();
    Span s;
    s.name = name;
    s.start_us = now;
    s.id = static_cast<int>(spans_.size());
    s.parent = ts.open.empty() ? -1 : ts.open.back();
    s.rank = rank >= 0 ? rank
                       : (s.parent >= 0 ? spans_[s.parent].rank : default_rank);
    s.thread = ts.index;
    spans_.push_back(s);
    ts.open.push_back(s.id);
    return Scope(this, s.id);
  }

  /// Write proc<process>-rank<r>.json into `dir` for every rank r that
  /// has spans in this process. Returns the paths written.
  std::vector<std::string> write(const std::string& dir, int process) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::set<int> ranks;
    for (const Span& s : spans_) ranks.insert(s.rank);
    std::vector<std::string> paths;
    for (const int r : ranks) {
      const std::string path = dir + "/proc" + std::to_string(process) +
                               "-rank" + std::to_string(r) + ".json";
      std::FILE* f = std::fopen(path.c_str(), "w");
      if (f == nullptr) continue;
      std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
      bool first = true;
      for (const Span& s : spans_) {
        if (s.rank != r) continue;
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                     "\"dur\":%.3f,\"pid\":%d,\"tid\":%d,"
                     "\"args\":{\"id\":%d,\"parent\":%d}}",
                     first ? "" : ",\n", s.name.c_str(), s.start_us,
                     s.end_us - s.start_us, s.rank, s.thread, s.id,
                     s.parent);
        first = false;
      }
      std::fprintf(f, "\n]}\n");
      std::fclose(f);
      paths.push_back(path);
    }
    return paths;
  }

 private:
  struct ThreadState {
    int index = -1;
    std::vector<int> open;
  };

  static double now_us() {
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     kProcessStart)
        .count();
  }

  ThreadState& thread_state() {
    thread_local ThreadState ts;
    if (ts.index < 0) ts.index = next_thread_++;
    return ts;
  }

  void close(int id) {
    const double now = now_us();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end_us = now;
    ThreadState& ts = thread_state();
    if (!ts.open.empty() && ts.open.back() == id) ts.open.pop_back();
  }

  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  int next_thread_ = 0;
};

}  // namespace perfbench
