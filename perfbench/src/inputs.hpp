#pragma once
// The benchmark's own seeded input generator. It deliberately does not use
// the program's generators (src/graph/generators.cpp): a change to the
// program must never change a workload's input.
//
// Every random draw comes from SplitMix64, whose output is fixed by its
// definition, so a seed names the same edge list on every compiler and
// standard library.

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// SplitMix64 (Steele, Lea, Flood 2014): one 64-bit state, full period.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1) with 53 random bits.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n) (Lemire's multiply-shift; the bias is below 2^-32
  /// for every n used here).
  std::uint32_t below(std::uint32_t n) {
    return static_cast<std::uint32_t>(((next() >> 32) * n) >> 32);
  }

 private:
  std::uint64_t state_;
};

struct Edge {
  std::uint32_t src;
  std::uint32_t dst;
};

struct EdgeList {
  std::uint32_t num_vertices = 0;
  std::vector<Edge> edges;
};

/// How one workload's input is made. Sizes are fixed per workload; the
/// seed changes only the random draws.
struct InputSpec {
  int scale = 0;               ///< R-MAT core has 2^scale vertices
  std::uint64_t edges = 0;     ///< R-MAT draws (undirected: pairs)
  double a = 0.57, b = 0.19, c = 0.19;  ///< R-MAT quadrant probabilities
  bool undirected = false;     ///< emit both directions, drop self-loops
  bool shuffle_ids = true;     ///< relabel R-MAT ids by a seeded shuffle
  std::uint32_t cycle_len = 0;       ///< directed cycles appended (SCC)
  std::uint32_t cycle_vertices = 0;  ///< vertices spent on cycles
  std::uint32_t path_vertices = 0;   ///< undirected path appended (S-V)
};

/// The three workloads' inputs (README.md lists the same figures).
inline InputSpec input_spec(const std::string& workload) {
  if (workload == "pr-dense") {
    // Skewed web-graph stand-in: 2^19 vertices, 16 edges per vertex.
    return {.scale = 19, .edges = std::uint64_t{16} << 19};
  }
  if (workload == "sv-composed") {
    // Sparse social-graph stand-in: 1.5 undirected edges per vertex, so
    // an average degree of ~3 once both directions are stored. A path of
    // 2^13 vertices needs more S-V iterations than any seed's R-MAT part,
    // so the superstep count does not depend on the seed.
    return {.scale = 19,
            .edges = std::uint64_t{3} << 18,
            .a = 0.45,
            .b = 0.22,
            .c = 0.22,
            .undirected = true,
            .path_vertices = 1u << 13};
  }
  if (workload == "scc-tcp") {
    // Directed R-MAT core plus long directed cycles: label waves must walk
    // each cycle, so Min-Label takes hundreds of small supersteps. The core
    // keeps R-MAT's own ids (hubs first, as in a crawl order): with
    // shuffled ids the number of label improvements, and so msg_bytes,
    // varied by 7% between seeds, against under 3% this way.
    return {.scale = 16,
            .edges = std::uint64_t{6} << 16,
            .shuffle_ids = false,
            .cycle_len = 192,
            .cycle_vertices = 1u << 15};
  }
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

/// R-MAT edges over 2^scale vertices, with ids shuffled by the seed unless
/// the spec keeps R-MAT's own (where hubs sit at low ids), then the spec's cycles appended as
/// vertices 2^scale.. in id order, each entered by one edge from a random
/// core vertex and left by none, or its path appended as vertices
/// 2^scale.. joined in id order.
inline EdgeList generate(const InputSpec& spec, std::uint64_t seed) {
  Rng rng(seed * 0x2545F4914F6CDD1Dull + 0x1234567ull);
  const std::uint32_t core = 1u << spec.scale;
  EdgeList out;
  out.num_vertices = core + spec.cycle_vertices + spec.path_vertices;

  std::vector<std::uint32_t> label(core);
  for (std::uint32_t i = 0; i < core; ++i) label[i] = i;
  for (std::uint32_t i = core - 1; spec.shuffle_ids && i > 0; --i) {
    std::swap(label[i], label[rng.below(i + 1)]);
  }

  // Cycles add at most one entry edge per cycle vertex.
  out.edges.reserve(spec.undirected ? 2 * (spec.edges + spec.path_vertices)
                                    : spec.edges + 2 * spec.cycle_vertices);
  const double ab = spec.a + spec.b, abc = ab + spec.c;
  for (std::uint64_t e = 0; e < spec.edges; ++e) {
    std::uint32_t u = 0, v = 0;
    for (int level = 0; level < spec.scale; ++level) {
      const double r = rng.uniform();
      u <<= 1;
      v <<= 1;
      if (r < spec.a) {
      } else if (r < ab) {
        v |= 1;
      } else if (r < abc) {
        u |= 1;
      } else {
        u |= 1;
        v |= 1;
      }
    }
    u = label[u];
    v = label[v];
    if (spec.undirected) {
      if (u == v) continue;
      out.edges.push_back({u, v});
      out.edges.push_back({v, u});
    } else {
      out.edges.push_back({u, v});
    }
  }

  if (spec.cycle_len > 0) {
    for (std::uint32_t start = 0; start + spec.cycle_len <= spec.cycle_vertices;
         start += spec.cycle_len) {
      for (std::uint32_t i = 0; i < spec.cycle_len; ++i) {
        out.edges.push_back(
            {core + start + i, core + start + (i + 1) % spec.cycle_len});
      }
      out.edges.push_back({rng.below(core), core + start});
    }
  }
  for (std::uint32_t i = 1; i < spec.path_vertices; ++i) {
    out.edges.push_back({core + i - 1, core + i});
    out.edges.push_back({core + i, core + i - 1});
  }
  return out;
}

}  // namespace perfbench
