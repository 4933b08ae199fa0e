#pragma once
// Per-layer measurements, taken from outside: each times calls into one
// module's public functions on inputs sized like the workload's, next to
// two hardware ceilings measured in the same process. Every figure is the
// median of repeated samples.

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "graph/distributed.hpp"
#include "inputs.hpp"
#include "runtime/active_set.hpp"
#include "runtime/buffer.hpp"
#include "runtime/tcp_transport.hpp"
#include "runtime/team.hpp"
#include "runtime/transport.hpp"
#include "trace.hpp"

namespace perfbench::layers {

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Run `sample` (which returns one figure) at least `min_samples` times and
/// until `budget_s` has passed; return the median figure.
template <typename Sample>
double sampled(double budget_s, int min_samples, Sample&& sample) {
  std::vector<double> figures;
  const auto t0 = Clock::now();
  while (static_cast<int>(figures.size()) < min_samples ||
         seconds_since(t0) < budget_s) {
    figures.push_back(sample());
  }
  return median(figures);
}

/// Keeps a value observable so a measured loop is not optimised away.
inline volatile std::uint64_t g_sink = 0;

/// Full out-edge scan through DistributedGraph::out over every rank's
/// vertices, in million edges per second.
inline double scan_medges_per_s(const pregel::graph::DistributedGraph& dg) {
  return sampled(0.5, 3, [&] {
    const auto t0 = Clock::now();
    std::uint64_t sum = 0, edges = 0;
    for (int r = 0; r < dg.num_workers(); ++r) {
      for (std::uint32_t l = 0; l < dg.num_local(r); ++l) {
        const auto span = dg.out(r, l);
        for (const auto& e : span) sum += e.dst;
        edges += span.size();
      }
    }
    g_sink = sum;
    return static_cast<double>(edges) / seconds_since(t0) / 1e6;
  });
}

/// Buffer::write and Buffer::read of (vertex id, payload) records, `bytes`
/// per pass, in MB/s. Payload is the workload's message value type.
template <typename Payload>
std::pair<double, double> buffer_mb_per_s(std::size_t bytes) {
  const std::size_t records =
      std::max<std::size_t>(1, bytes / (sizeof(std::uint32_t) + sizeof(Payload)));
  const double mb =
      static_cast<double>(records * (sizeof(std::uint32_t) + sizeof(Payload))) /
      1e6;
  pregel::runtime::Buffer buf;
  buf.reserve(records * (sizeof(std::uint32_t) + sizeof(Payload)));
  const double write = sampled(0.3, 5, [&] {
    buf.clear();
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < records; ++i) {
      buf.write(static_cast<std::uint32_t>(i));
      buf.write(Payload{});
    }
    return mb / seconds_since(t0);
  });
  const double read = sampled(0.3, 5, [&] {
    buf.rewind();
    const auto t0 = Clock::now();
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < records; ++i) {
      sum += buf.read<std::uint32_t>();
      (void)buf.read<Payload>();
    }
    g_sink = sum;
    return mb / seconds_since(t0);
  });
  return {write, read};
}

/// One in-process exchange round per sample on a `ranks`-thread team:
/// every rank writes `bytes_per_rank` spread over all destinations into
/// its outboxes, exchanges, and reads its inboxes. MB/s of payload moved,
/// and the latency of one allreduce_or in microseconds.
inline std::pair<double, double> inprocess_exchange(int ranks,
                                                    std::size_t bytes_per_rank,
                                                    Tracer& tracer) {
  pregel::runtime::InProcessTransport transport(ranks);
  const std::size_t per_pair =
      std::max<std::size_t>(8, bytes_per_rank / static_cast<std::size_t>(ranks));
  std::vector<char> source(per_pair, 1);
  constexpr int kRounds = 20, kReduces = 2000;
  const double mb = static_cast<double>(per_pair) * ranks * ranks * kRounds / 1e6;
  const double exchange = sampled(0.4, 3, [&] {
    const auto t0 = Clock::now();
    pregel::runtime::WorkerTeam::run(ranks, [&](int rank) {
      auto scope = tracer.span("runtime.inprocess.exchange", rank);
      std::vector<char> sink(per_pair);
      for (int round = 0; round < kRounds; ++round) {
        for (int to = 0; to < ranks; ++to) {
          transport.outbox(rank, to).write_bytes(source.data(), per_pair);
        }
        transport.exchange(rank);
        for (int from = 0; from < ranks; ++from) {
          transport.inbox(rank, from).read_bytes(sink.data(), per_pair);
        }
      }
    });
    return mb / seconds_since(t0);
  });
  const double allreduce = sampled(0.2, 3, [&] {
    const auto t0 = Clock::now();
    pregel::runtime::WorkerTeam::run(ranks, [&](int rank) {
      auto scope = tracer.span("runtime.inprocess.allreduce", rank);
      for (int i = 0; i < kReduces; ++i) transport.allreduce_or(rank, 1);
    });
    return seconds_since(t0) / kReduces * 1e6;
  });
  return {exchange, allreduce};
}

struct TcpFigures {
  double connect_s = 0.0;
  double exchange_mb_per_s = 0.0;
  double allreduce_us = 0.0;
};

/// A 2-rank loopback TCP mesh inside this process (one thread per rank,
/// kernel-chosen ports): mesh connect time, bulk exchange throughput with
/// `bytes_per_peer` each way per round, and allreduce_or latency.
inline TcpFigures tcp_loopback(std::size_t bytes_per_peer, Tracer& tracer) {
  using pregel::runtime::TcpEndpoint;
  using pregel::runtime::TcpTransport;
  constexpr int kWorld = 2, kRounds = 10, kReduces = 500;
  std::vector<std::unique_ptr<TcpTransport>> t;
  std::vector<TcpEndpoint> peers(kWorld);
  for (int r = 0; r < kWorld; ++r) {
    t.push_back(std::make_unique<TcpTransport>(r, kWorld, TcpEndpoint{}));
    peers[static_cast<std::size_t>(r)].port = t.back()->listen_port();
  }
  TcpFigures fig;
  std::vector<double> connect(kWorld);
  pregel::runtime::WorkerTeam::run(kWorld, [&](int r) {
    auto scope = tracer.span("runtime.tcp.connect", r);
    const auto t0 = Clock::now();
    t[static_cast<std::size_t>(r)]->connect_mesh(peers, 10.0);
    connect[static_cast<std::size_t>(r)] = seconds_since(t0);
  });
  fig.connect_s = std::max(connect[0], connect[1]);

  const std::size_t per_peer = std::max<std::size_t>(8, bytes_per_peer);
  std::vector<char> source(per_peer, 1);
  const double mb = static_cast<double>(per_peer) * kWorld * kRounds / 1e6;
  fig.exchange_mb_per_s = sampled(0.4, 3, [&] {
    const auto t0 = Clock::now();
    pregel::runtime::WorkerTeam::run(kWorld, [&](int r) {
      auto scope = tracer.span("runtime.tcp.exchange", r);
      TcpTransport& tr = *t[static_cast<std::size_t>(r)];
      const int peer = 1 - r;
      std::vector<char> sink(per_peer);
      for (int round = 0; round < kRounds; ++round) {
        tr.outbox(r, peer).write_bytes(source.data(), per_peer);
        tr.exchange(r);
        tr.inbox(r, peer).read_bytes(sink.data(), per_peer);
      }
    });
    return mb / seconds_since(t0);
  });
  fig.allreduce_us = sampled(0.3, 3, [&] {
    const auto t0 = Clock::now();
    pregel::runtime::WorkerTeam::run(kWorld, [&](int r) {
      auto scope = tracer.span("runtime.tcp.allreduce", r);
      for (int i = 0; i < kReduces; ++i) {
        t[static_cast<std::size_t>(r)]->allreduce_or(r, 1);
      }
    });
    return seconds_since(t0) / kReduces * 1e6;
  });
  return fig;
}

/// One for_each_set pass over an ActiveSet of `size` bits with a fraction
/// `density` set at seeded random positions, in microseconds.
inline double active_set_scan_us(std::uint32_t size, double density,
                                 std::uint64_t seed) {
  pregel::runtime::ActiveSet set(size, false);
  Rng rng(seed);
  const auto target = static_cast<std::uint64_t>(density * size);
  for (std::uint64_t i = 0; i < target; ++i) set.set(rng.below(size));
  return sampled(0.2, 20, [&] {
    const auto t0 = Clock::now();
    std::uint64_t sum = 0;
    set.for_each_set([&](std::uint32_t i) { sum += i; });
    g_sink = sum;
    return seconds_since(t0) * 1e6;
  });
}

/// memcpy between two 128 MiB buffers (together larger than a 105 MiB
/// L3), in GB/s copied.
inline double memcpy_gb_per_s() {
  constexpr std::size_t kBytes = std::size_t{128} << 20;
  std::vector<char> a(kBytes, 1), b(kBytes, 2);
  return sampled(0.5, 3, [&] {
    const auto t0 = Clock::now();
    std::memcpy(b.data(), a.data(), kBytes);
    g_sink = static_cast<std::uint64_t>(b[kBytes / 2]);
    return static_cast<double>(kBytes) / seconds_since(t0) / 1e9;
  });
}

/// Raw AF_UNIX socketpair stream, one writer and one reader thread, 1 MiB
/// writes, in MB/s.
inline double socketpair_mb_per_s() {
  constexpr std::size_t kChunk = std::size_t{1} << 20;
  constexpr std::size_t kTotal = std::size_t{64} << 20;
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw std::runtime_error("socketpair failed");
  }
  std::vector<char> out(kChunk, 3), in(kChunk);
  const double mb = static_cast<double>(kTotal) / 1e6;
  const double figure = sampled(0.4, 3, [&] {
    const auto t0 = Clock::now();
    std::thread writer([&] {
      for (std::size_t sent = 0; sent < kTotal;) {
        const ssize_t n = ::write(fds[0], out.data(),
                                  std::min(kChunk, kTotal - sent));
        if (n <= 0) {
          ::shutdown(fds[0], SHUT_WR);  // the reader sees end of stream
          return;
        }
        sent += static_cast<std::size_t>(n);
      }
    });
    for (std::size_t got = 0; got < kTotal;) {
      const ssize_t n = ::read(fds[1], in.data(), kChunk);
      if (n <= 0) break;
      got += static_cast<std::size_t>(n);
    }
    writer.join();
    return mb / seconds_since(t0);
  });
  ::close(fds[0]);
  ::close(fds[1]);
  return figure;
}

}  // namespace perfbench::layers
