// pgbench: the measuring half of the benchmark (perfbench/run.py drives it).
//
//   pgbench prepare <workload> <seed> <dir>
//       Generate the workload's input from the seed with the benchmark's
//       own generator, write it as edge-list text (dir/edges.txt, for
//       tools/graph_convert), compute the oracle answer (dir/oracle.bin)
//       and, for S-V, keep the raw edges for the edge check (dir/edges.bin).
//
//   pgbench run <workload> <dir> <seconds> <trace 0|1> <seed> [trace_dir]
//       Set up from dir/graph.bin, run one untimed warm-up job, then timed
//       jobs for <seconds>, checking every job's output. Prints one line
//       "PGBENCH_RESULT {json}". Under tools/pgch_launch (PGCH_TRANSPORT=
//       tcp) every rank process runs this and rank 0 prints.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "algorithms/pagerank.hpp"
#include "algorithms/runner.hpp"
#include "algorithms/scc.hpp"
#include "algorithms/sv.hpp"
#include "checks.hpp"
#include "core/launch_config.hpp"
#include "graph/distributed.hpp"
#include "graph/io.hpp"
#include "graph/partition.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "oracles.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace pregel;
using namespace perfbench;

namespace {

constexpr int kPageRankIterations = 30;
constexpr int kMinTimedJobs = 3;

// ------------------------------------------------------------ file I/O --

template <typename T>
void write_array(const std::string& path, const std::vector<T>& v) {
  std::ofstream f(path, std::ios::binary);
  const std::uint64_t n = v.size();
  f.write(reinterpret_cast<const char*>(&n), sizeof n);
  f.write(reinterpret_cast<const char*>(v.data()),
          static_cast<std::streamsize>(n * sizeof(T)));
  if (!f) throw std::runtime_error("cannot write " + path);
}

template <typename T>
std::vector<T> read_array(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::uint64_t n = 0;
  f.read(reinterpret_cast<char*>(&n), sizeof n);
  std::vector<T> v(n);
  f.read(reinterpret_cast<char*>(v.data()),
         static_cast<std::streamsize>(n * sizeof(T)));
  if (!f) throw std::runtime_error("cannot read " + path);
  return v;
}

void write_edge_text(const EdgeList& g, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "%u\n", g.num_vertices);
  for (const Edge& e : g.edges) std::fprintf(f, "%u %u\n", e.src, e.dst);
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

int cmd_prepare(const std::string& workload, std::uint64_t seed,
                const std::string& dir) {
  const EdgeList g = generate(input_spec(workload), seed);
  write_edge_text(g, dir + "/edges.txt");
  if (workload == "pr-dense") {
    write_array(dir + "/oracle.bin", pagerank_oracle(g, kPageRankIterations));
  } else if (workload == "sv-composed") {
    write_array(dir + "/oracle.bin", components_oracle(g));
    std::vector<std::uint32_t> flat;
    flat.reserve(2 * g.edges.size() + 1);
    flat.push_back(g.num_vertices);
    for (const Edge& e : g.edges) {
      flat.push_back(e.src);
      flat.push_back(e.dst);
    }
    write_array(dir + "/edges.bin", flat);
  } else {
    write_array(dir + "/oracle.bin", scc_oracle(g));
  }
  std::printf("prepared %s seed %llu: %u vertices, %zu edges\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              g.num_vertices, g.edges.size());
  return 0;
}

EdgeList read_edges(const std::string& path) {
  const auto flat = read_array<std::uint32_t>(path);
  EdgeList g;
  g.num_vertices = flat.at(0);
  g.edges.resize((flat.size() - 1) / 2);
  for (std::size_t i = 0; i < g.edges.size(); ++i) {
    g.edges[i] = {flat[1 + 2 * i], flat[2 + 2 * i]};
  }
  return g;
}

// ------------------------------------------------------------- the run --

/// What one process of the run holds: the graph, and under TCP its
/// connected transport and rank.
struct Context {
  std::string workload;
  int ranks = 0;
  std::unique_ptr<graph::DistributedGraph> dg;
  std::unique_ptr<runtime::TcpTransport> tcp;
  int rank = 0;
  Tracer tracer;

  bool leader() const { return rank == 0; }

  /// Rank 0's value, on every rank.
  bool agree(bool mine) {
    if (!tcp) return mine;
    runtime::Buffer b;
    if (rank == 0) b.write<std::uint8_t>(mine ? 1 : 0);
    tcp->broadcast_from_root(rank, &b);
    b.rewind();
    return b.read<std::uint8_t>() != 0;
  }

  /// The largest of every rank's value, on rank 0.
  double max_over_ranks(double mine) {
    if (!tcp) return mine;
    runtime::Buffer b;
    b.write(mine);
    std::vector<runtime::Buffer> all = tcp->gather_to_root(rank, b);
    for (runtime::Buffer& x : all) mine = std::max(mine, x.read<double>());
    return mine;
  }
};

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// One job: run WorkerT to completion and gather each vertex's result
/// into `out` (every entry reset to `blank` first, so a vertex the run
/// skipped cannot keep an earlier job's answer).
template <typename WorkerT, typename OutT, typename Extract>
runtime::RunStats run_job(Context& ctx, std::vector<OutT>& out, OutT blank,
                          Extract extract, double* seconds) {
  std::fill(out.begin(), out.end(), blank);
  const std::function<void(WorkerT&, int)> collect =
      [&out, &extract](const WorkerT& w, int) {
        w.for_each_vertex([&](const auto& v) { out[v.id()] = extract(v); });
      };
  runtime::RunStats stats;
  {
    auto span = ctx.tracer.span("job." + ctx.workload);
    const auto t0 = Clock::now();
    if (ctx.tcp) {
      stats = core::launch_distributed<WorkerT>(*ctx.dg, *ctx.tcp, ctx.rank,
                                                nullptr, collect);
    } else {
      stats = core::launch<WorkerT>(*ctx.dg, core::LaunchConfig{}, nullptr,
                                    collect);
    }
    *seconds = seconds_since(t0);
  }
  if (ctx.tcp) {
    auto span = ctx.tracer.span("allgather_results");
    algo::allgather_results(*ctx.tcp, ctx.rank, *ctx.dg, out);
  }
  return stats;
}

struct JobRecord {
  double seconds = 0.0;
  bool traced = false;
  runtime::RunStats stats;
};

struct Measured {
  std::vector<JobRecord> jobs;  ///< timed jobs (the warm-up excluded)
  double peak_rss_mib = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
};

/// Warm-up, peak-RSS read, then timed jobs until `seconds` have passed
/// (at least kMinTimedJobs). Each job's output is checked on rank 0; the
/// oracle is loaded only after the peak-RSS read so it is not counted.
/// With `alternate_tracing`, every other timed job runs with spans off,
/// which is what the tracing overhead is computed from.
template <typename OutT, typename JobFn, typename CheckFn, typename LoadFn>
Measured measure(Context& ctx, double seconds, bool alternate_tracing,
                 JobFn job, LoadFn load_oracle, CheckFn check) {
  Measured m;
  const bool tracing = ctx.tracer.enabled;
  std::vector<OutT> out(ctx.dg->num_vertices());
  double warm_s = 0.0;
  job(out, &warm_s);
  m.peak_rss_mib = ctx.max_over_ranks(peak_rss_mib());
  if (ctx.leader()) load_oracle();
  const auto verify = [&] {
    if (!ctx.leader()) return;
    ++m.attempted;
    auto span = ctx.tracer.span("check");
    const std::string error = check(out);
    if (!error.empty()) {
      ++m.failed;
      m.errors.push_back(error);
    }
  };
  verify();

  const auto t0 = Clock::now();
  for (int i = 0;; ++i) {
    const bool more = ctx.agree(static_cast<int>(m.jobs.size()) < kMinTimedJobs ||
                                seconds_since(t0) < seconds);
    if (!more) break;
    JobRecord rec;
    rec.traced = tracing && (!alternate_tracing || i % 2 == 0);
    ctx.tracer.enabled = rec.traced;
    rec.stats = job(out, &rec.seconds);
    ctx.tracer.enabled = tracing;
    verify();
    m.jobs.push_back(rec);
  }
  return m;
}

// ----------------------------------------------------------- reporting --

struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> list;
  void add(const std::string& name, double value, const std::string& unit) {
    list.push_back({name, {value, unit}});
  }
  std::string json() const {
    std::ostringstream os;
    os.precision(17);
    os << "{";
    for (std::size_t i = 0; i < list.size(); ++i) {
      os << (i ? ", " : "") << "\"" << list[i].first << "\": {\"value\": "
         << list[i].second.first << ", \"unit\": \"" << list[i].second.second
         << "\"}";
    }
    os << "}";
    return os.str();
  }
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

template <typename Field>
double median_of(const std::vector<JobRecord>& jobs, Field field,
                 int traced = -1) {
  std::vector<double> v;
  for (const JobRecord& j : jobs) {
    if (traced < 0 || j.traced == (traced == 1)) v.push_back(field(j));
  }
  return layers::median(v);
}

/// The channel names of all three workloads' programs: every traced run
/// reports each, 0 where the workload's program has no such channel.
const char* const kChannels[] = {"pr",     "sink",    "dd",      "nbr",
                                 "merge",  "changes", "cnt_in",  "cnt_out",
                                 "labels", "activity", "alive"};

struct SetupTimes {
  double load_s = 0.0, partition_s = 0.0, build_s = 0.0, connect_s = 0.0;
  double setup_s = 0.0;
};

template <typename Payload>
void layer_metrics(Context& ctx, const Measured& m, const SetupTimes& st,
                   std::uint64_t seed, Metrics& out) {
  const graph::DistributedGraph& dg = *ctx.dg;
  const runtime::RunStats& last = m.jobs.back().stats;
  const double n = dg.num_vertices();
  const auto steps = static_cast<double>(std::max(1, last.supersteps));
  const auto bytes_per_rank = static_cast<std::size_t>(
      static_cast<double>(last.message_bytes) / steps / ctx.ranks);

  out.add("graph.load_s", st.load_s, "s");
  out.add("graph.partition_s", st.partition_s, "s");
  out.add("graph.build_s", st.build_s, "s");
  const graph::CsrGraph& csr = dg.csr();
  out.add("graph.csr_bytes",
          static_cast<double>((n + 1) * 8 + csr.num_edges() * 4 *
                                                (csr.is_weighted() ? 2 : 1)),
          "bytes");
  {
    auto s = ctx.tracer.span("graph.scan");
    out.add("graph.scan_medges_per_s", layers::scan_medges_per_s(dg),
            "Medges/s");
  }
  {
    auto s = ctx.tracer.span("runtime.buffer");
    const auto [w, r] = layers::buffer_mb_per_s<Payload>(
        std::max<std::size_t>(bytes_per_rank, 4096));
    out.add("runtime.buffer.write_mb_per_s", w, "MB/s");
    out.add("runtime.buffer.read_mb_per_s", r, "MB/s");
  }
  {
    auto s = ctx.tracer.span("runtime.inprocess");
    const auto [x, a] =
        layers::inprocess_exchange(ctx.ranks, bytes_per_rank, ctx.tracer);
    out.add("runtime.inprocess.exchange_mb_per_s", x, "MB/s");
    out.add("runtime.inprocess.allreduce_us", a, "us");
  }
  {
    auto s = ctx.tracer.span("runtime.tcp");
    const layers::TcpFigures t =
        layers::tcp_loopback(bytes_per_rank, ctx.tracer);
    out.add("runtime.tcp.exchange_mb_per_s", t.exchange_mb_per_s, "MB/s");
    out.add("runtime.tcp.allreduce_us", t.allreduce_us, "us");
    out.add("runtime.tcp.connect_s", t.connect_s, "s");
  }
  {
    auto s = ctx.tracer.span("runtime.active_set");
    const double density =
        static_cast<double>(last.active_vertex_total) / steps / n;
    out.add("runtime.active_set.scan_us",
            layers::active_set_scan_us(
                static_cast<std::uint32_t>(n / ctx.ranks), density, seed),
            "us");
  }

  const auto stat = [&](auto field) {
    return median_of(m.jobs, [&](const JobRecord& j) { return field(j.stats); });
  };
  out.add("core.compute_s",
          stat([](const runtime::RunStats& s) { return s.compute_seconds; }), "s");
  out.add("core.serialize_s",
          stat([](const runtime::RunStats& s) { return s.serialize_seconds; }), "s");
  out.add("core.exchange_s",
          stat([](const runtime::RunStats& s) { return s.exchange_seconds; }), "s");
  out.add("core.deliver_s",
          stat([](const runtime::RunStats& s) { return s.deliver_seconds; }), "s");
  out.add("core.vote_s", stat([](const runtime::RunStats& s) {
            return s.comm_seconds - s.serialize_seconds - s.exchange_seconds -
                   s.deliver_seconds;
          }),
          "s");
  out.add("core.active_vertices", static_cast<double>(last.active_vertex_total),
          "count");
  out.add("core.frame_bytes", static_cast<double>(last.frame_bytes), "bytes");
  for (const char* ch : kChannels) {
    const auto it = last.bytes_by_channel.find(ch);
    out.add(std::string("core.channel_bytes.") + ch,
            it == last.bytes_by_channel.end() ? 0.0
                                              : static_cast<double>(it->second),
            "bytes");
  }
  out.add("core.rank_imbalance",
          stat([](const runtime::RunStats& s) { return s.rank_imbalance(); }),
          "ratio");
  {
    auto s = ctx.tracer.span("ceiling.memcpy");
    out.add("ceiling.memcpy_gb_per_s", layers::memcpy_gb_per_s(), "GB/s");
  }
  {
    auto s = ctx.tracer.span("ceiling.socketpair");
    out.add("ceiling.socketpair_mb_per_s", layers::socketpair_mb_per_s(),
            "MB/s");
  }
  const auto secs = [](const JobRecord& j) { return j.seconds; };
  const double traced = median_of(m.jobs, secs, 1);
  out.add("trace.job_s", traced, "s");
  out.add("trace.overhead_s", traced - median_of(m.jobs, secs, 0), "s");
}

template <typename Payload, typename OutT, typename JobFn, typename LoadFn,
          typename CheckFn>
int finish(Context& ctx, const SetupTimes& st, double seconds, bool trace,
           std::uint64_t seed, const std::string& trace_dir, JobFn job,
           LoadFn load, CheckFn check) {
  const Measured m =
      measure<OutT>(ctx, seconds, /*alternate_tracing=*/trace, job, load, check);
  const double setup_s = ctx.max_over_ranks(st.setup_s);

  Metrics metrics;
  if (trace) {
    // Rank 0 measures the layers while the other ranks wait, so the
    // measurements do not compete with one another for cores.
    if (ctx.leader()) layer_metrics<Payload>(ctx, m, st, seed, metrics);
    if (ctx.tcp) ctx.tcp->barrier(ctx.rank);
    if (!trace_dir.empty()) ctx.tracer.write(trace_dir, ctx.rank);
  } else {
    const runtime::RunStats& s = m.jobs.back().stats;
    metrics.add("job_s",
                median_of(m.jobs, [](const JobRecord& j) { return j.seconds; }),
                "s");
    metrics.add("setup_s", setup_s, "s");
    metrics.add("msg_bytes", static_cast<double>(s.message_bytes), "bytes");
    metrics.add("supersteps", s.supersteps, "count");
    metrics.add("comm_rounds", static_cast<double>(s.comm_rounds), "count");
    metrics.add("peak_rss_mb", m.peak_rss_mib, "MiB");
  }
  if (!ctx.leader()) return 0;

  // Counters must not differ between jobs of one run: the engine is
  // deterministic for a fixed input and team.
  bool counters_stable = true;
  for (const JobRecord& j : m.jobs) {
    const runtime::RunStats& a = j.stats;
    const runtime::RunStats& b = m.jobs.front().stats;
    counters_stable &= a.message_bytes == b.message_bytes &&
                       a.supersteps == b.supersteps &&
                       a.comm_rounds == b.comm_rounds;
  }
  // merge_from() maxes each phase over ranks separately, so the team's
  // phase sum can exceed the team's wall time; record how far.
  double phase_excess = 0.0;
  for (const JobRecord& j : m.jobs) {
    const runtime::RunStats& s = j.stats;
    phase_excess = std::max(phase_excess, s.compute_seconds + s.serialize_seconds +
                                              s.exchange_seconds +
                                              s.deliver_seconds - s.seconds);
  }
  std::ostringstream errors;
  for (std::size_t i = 0; i < m.errors.size() && i < 5; ++i) {
    errors << (i ? "," : "") << json_string(m.errors[i]);
  }
  std::ostringstream job_times;
  job_times.precision(9);
  for (std::size_t i = 0; i < m.jobs.size(); ++i) {
    job_times << (i ? "," : "") << m.jobs[i].seconds;
  }
  std::printf(
      "PGBENCH_RESULT {\"correct\": %s, \"attempted\": %llu, \"failed\": "
      "%llu, \"metrics\": %s, \"record\": {\"compiler\": %s, "
      "\"build_type\": %s, \"ranks\": %d, \"transport\": \"%s\", "
      "\"job_seconds\": [%s], \"counters_stable\": %s, "
      "\"phase_sum_minus_wall_s\": %.6f, \"errors\": [%s]}}\n",
      m.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(m.attempted),
      static_cast<unsigned long long>(m.failed), metrics.json().c_str(),
      json_string(__VERSION__).c_str(), json_string(PERFBENCH_BUILD_TYPE).c_str(),
      ctx.ranks, ctx.tcp ? "tcp" : "inprocess", job_times.str().c_str(),
      counters_stable ? "true" : "false", phase_excess, errors.str().c_str());
  std::fflush(stdout);
  return 0;
}

int cmd_run(const std::string& workload, const std::string& dir,
            double seconds, bool trace, std::uint64_t seed,
            const std::string& trace_dir) {
  Context ctx;
  ctx.workload = workload;
  ctx.tracer.enabled = trace;
  const bool is_scc = workload == "scc-tcp";
  ctx.ranks = is_scc ? 2 : 4;
  const core::LaunchConfig config = core::LaunchConfig::from_env();
  const bool tcp = config.transport == runtime::TransportKind::kTcp;
  if (tcp != is_scc) {
    throw std::invalid_argument(
        "scc-tcp runs under pgch_launch over TCP; the others in-process");
  }
  ctx.rank = tcp ? config.rank : 0;
  ctx.tracer.default_rank = ctx.rank;

  // Set-up: everything a user waits for before the first superstep.
  SetupTimes st;
  auto setup_span = ctx.tracer.span("setup");
  graph::CsrGraph csr;
  {
    auto s = ctx.tracer.span("graph.load");
    const auto t0 = Clock::now();
    csr = graph::load_any(dir + "/graph.bin");
    st.load_s = seconds_since(t0);
  }
  graph::Partition part;
  {
    auto s = ctx.tracer.span("graph.partition");
    const auto t0 = Clock::now();
    part = graph::hash_partition(csr.num_vertices(), ctx.ranks);
    st.partition_s = seconds_since(t0);
  }
  {
    auto s = ctx.tracer.span("graph.build");
    const auto t0 = Clock::now();
    if (is_scc) csr = algo::make_bidirected(csr);
    ctx.dg = std::make_unique<graph::DistributedGraph>(
        std::make_shared<const graph::CsrGraph>(std::move(csr)),
        std::move(part));
    st.build_s = seconds_since(t0);
  }
  if (tcp) {
    auto s = ctx.tracer.span("runtime.tcp.connect");
    const auto t0 = Clock::now();
    ctx.tcp = core::connect_tcp(config, ctx.ranks);
    st.connect_s = seconds_since(t0);
  }
  st.setup_s = seconds_since(kProcessStart);
  setup_span = {};

  if (workload == "pr-dense") {
    std::vector<double> oracle;
    return finish<double, double>(
        ctx, st, seconds, trace, seed, trace_dir,
        [&](std::vector<double>& out, double* secs) {
          return run_job<algo::PageRankCombined>(
              ctx, out, -1.0,
              [](const algo::PRVertex& v) { return v.value().rank; }, secs);
        },
        [&] { oracle = read_array<double>(dir + "/oracle.bin"); },
        [&](const std::vector<double>& out) {
          return check_pagerank(out, oracle);
        });
  }
  if (workload == "sv-composed") {
    std::vector<std::uint32_t> oracle;
    EdgeList edges;
    return finish<std::uint32_t, std::uint32_t>(
        ctx, st, seconds, trace, seed, trace_dir,
        [&](std::vector<std::uint32_t>& out, double* secs) {
          return run_job<algo::SvBoth>(
              ctx, out, graph::kInvalidVertex,
              [](const algo::SvVertex& v) { return v.value().d; }, secs);
        },
        [&] {
          oracle = read_array<std::uint32_t>(dir + "/oracle.bin");
          edges = read_edges(dir + "/edges.bin");
        },
        [&](const std::vector<std::uint32_t>& out) {
          return check_components(out, edges, oracle);
        });
  }
  std::vector<std::uint32_t> oracle;
  return finish<algo::SccLabelMsg, std::uint32_t>(
      ctx, st, seconds, trace, seed, trace_dir,
      [&](std::vector<std::uint32_t>& out, double* secs) {
        return run_job<algo::SccBasic>(
            ctx, out, graph::kInvalidVertex,
            [](const algo::SccVertex& v) { return v.value().scc; }, secs);
      },
      [&] { oracle = read_array<std::uint32_t>(dir + "/oracle.bin"); },
      [&](const std::vector<std::uint32_t>& out) {
        return check_scc(out, oracle);
      });
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: pgbench prepare <workload> <seed> <dir>\n"
               "       pgbench run <workload> <dir> <seconds> <trace 0|1> "
               "<seed> [trace_dir]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "prepare" && argc == 5) {
      return cmd_prepare(argv[2], std::strtoull(argv[3], nullptr, 10), argv[4]);
    }
    if (cmd == "run" && (argc == 7 || argc == 8)) {
      return cmd_run(argv[2], argv[3], std::atof(argv[4]),
                     std::string(argv[5]) == "1",
                     std::strtoull(argv[6], nullptr, 10),
                     argc == 8 ? argv[7] : "");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pgbench %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  usage();
}
