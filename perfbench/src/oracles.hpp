#pragma once
// Sequential reference answers, written for the benchmark and sharing no
// code with the program (src/ref is part of the program under test).
// Each works straight from the generator's edge list.

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "inputs.hpp"

namespace perfbench {

/// Power-iteration PageRank with the engine's schedule: ranks start at
/// 1/n, then `iterations` updates r'(v) = 0.15/n + 0.85 (sum of in-shares
/// + S/n), where S is the rank mass held by vertices without out-edges.
/// Parallel edges each carry a share, as in the engine.
inline std::vector<double> pagerank_oracle(const EdgeList& g,
                                           int iterations) {
  const std::size_t n = g.num_vertices;
  std::vector<std::uint32_t> outdeg(n, 0);
  for (const Edge& e : g.edges) ++outdeg[e.src];
  std::vector<double> rank(n, 1.0 / static_cast<double>(n)), share(n),
      next(n);
  for (int it = 0; it < iterations; ++it) {
    double sink = 0.0;
    for (std::size_t v = 0; v < n; ++v) {
      if (outdeg[v] == 0) {
        sink += rank[v];
        share[v] = 0.0;
      } else {
        share[v] = rank[v] / static_cast<double>(outdeg[v]);
      }
    }
    std::fill(next.begin(), next.end(), 0.0);
    for (const Edge& e : g.edges) next[e.dst] += share[e.src];
    const double dn = static_cast<double>(n);
    for (std::size_t v = 0; v < n; ++v) {
      next[v] = 0.15 / dn + 0.85 * (next[v] + sink / dn);
    }
    rank.swap(next);
  }
  return rank;
}

/// Union-find connected components (edges taken as undirected); each
/// vertex's label is the smallest vertex id in its component.
inline std::vector<std::uint32_t> components_oracle(const EdgeList& g) {
  std::vector<std::uint32_t> parent(g.num_vertices);
  std::iota(parent.begin(), parent.end(), 0u);
  const auto find = [&parent](std::uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];  // path halving
      x = parent[x];
    }
    return x;
  };
  for (const Edge& e : g.edges) {
    const std::uint32_t a = find(e.src), b = find(e.dst);
    // Union towards the smaller root: a root is then its set's minimum.
    if (a < b) {
      parent[b] = a;
    } else if (b < a) {
      parent[a] = b;
    }
  }
  std::vector<std::uint32_t> label(g.num_vertices);
  for (std::uint32_t v = 0; v < g.num_vertices; ++v) label[v] = find(v);
  return label;
}

/// Iterative Tarjan SCC (explicit call stack, so deep cycles cannot blow
/// the thread stack); each vertex's label is the smallest id in its SCC.
inline std::vector<std::uint32_t> scc_oracle(const EdgeList& g) {
  const std::uint32_t n = g.num_vertices;
  std::vector<std::uint64_t> offset(std::size_t{n} + 1, 0);
  for (const Edge& e : g.edges) ++offset[e.src + 1];
  for (std::uint32_t v = 0; v < n; ++v) offset[v + 1] += offset[v];
  std::vector<std::uint32_t> adj(g.edges.size());
  {
    std::vector<std::uint64_t> fill(offset.begin(), offset.end() - 1);
    for (const Edge& e : g.edges) adj[fill[e.src]++] = e.dst;
  }

  constexpr std::uint32_t kUnvisited = 0xFFFFFFFFu;
  std::vector<std::uint32_t> index(n, kUnvisited), low(n), label(n);
  std::vector<bool> on_stack(n, false);
  std::vector<std::uint32_t> stack;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> frames;  // (v, next edge)
  std::uint32_t counter = 0;
  for (std::uint32_t root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    frames.push_back({root, offset[root]});
    index[root] = low[root] = counter++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!frames.empty()) {
      auto& [v, next] = frames.back();
      if (next < offset[v + 1]) {
        const std::uint32_t w = adj[next++];
        if (index[w] == kUnvisited) {
          index[w] = low[w] = counter++;
          stack.push_back(w);
          on_stack[w] = true;
          frames.push_back({w, offset[w]});
        } else if (on_stack[w]) {
          low[v] = std::min(low[v], index[w]);
        }
        continue;
      }
      const std::uint32_t done = v;
      frames.pop_back();
      if (!frames.empty()) {
        const std::uint32_t parent = frames.back().first;
        low[parent] = std::min(low[parent], low[done]);
      }
      if (low[done] == index[done]) {
        std::size_t first = stack.size();
        std::uint32_t smallest = done;
        do {
          --first;
          smallest = std::min(smallest, stack[first]);
        } while (stack[first] != done);
        for (std::size_t i = first; i < stack.size(); ++i) {
          label[stack[i]] = smallest;
          on_stack[stack[i]] = false;
        }
        stack.resize(first);
      }
    }
  }
  return label;
}

}  // namespace perfbench
