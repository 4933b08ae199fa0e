// Self-test of the benchmark's checks: each check must accept the oracle's
// own answer and reject a perturbed one. The SCC and components oracles
// are also compared with brute-force reachability on a small graph.
//
//   checks_test        exit 0 when every case behaves, 1 otherwise

#include <cstdio>
#include <queue>
#include <string>
#include <vector>

#include "checks.hpp"
#include "inputs.hpp"
#include "oracles.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void expect_accepts(const std::string& error, const std::string& what) {
  expect(error.empty(), what + " is accepted" +
                            (error.empty() ? "" : " (rejected: " + error + ")"));
}

void expect_rejects(const std::string& error, const std::string& what) {
  expect(!error.empty(), what + " is rejected" +
                             (error.empty() ? "" : ": " + error));
}

/// reach[u][v]: v is reachable from u (BFS from every vertex).
std::vector<std::vector<bool>> reachability(const EdgeList& g,
                                            bool undirected) {
  std::vector<std::vector<std::uint32_t>> adj(g.num_vertices);
  for (const Edge& e : g.edges) {
    adj[e.src].push_back(e.dst);
    if (undirected) adj[e.dst].push_back(e.src);
  }
  std::vector<std::vector<bool>> reach(g.num_vertices,
                                       std::vector<bool>(g.num_vertices));
  for (std::uint32_t s = 0; s < g.num_vertices; ++s) {
    std::queue<std::uint32_t> q;
    q.push(s);
    reach[s][s] = true;
    while (!q.empty()) {
      const std::uint32_t u = q.front();
      q.pop();
      for (const std::uint32_t v : adj[u]) {
        if (!reach[s][v]) {
          reach[s][v] = true;
          q.push(v);
        }
      }
    }
  }
  return reach;
}

void test_oracles() {
  // Small SCC-shaped input: R-MAT core of 2^7 vertices plus 4 cycles of 8.
  const EdgeList g = generate(
      {.scale = 7, .edges = 500, .cycle_len = 8, .cycle_vertices = 32}, 11);
  const auto reach = reachability(g, false);
  const auto scc = scc_oracle(g);
  bool scc_ok = true;
  for (std::uint32_t v = 0; v < g.num_vertices; ++v) {
    std::uint32_t smallest = v;
    for (std::uint32_t u = 0; u < v; ++u) {
      if (reach[u][v] && reach[v][u]) {
        smallest = u;
        break;
      }
    }
    scc_ok &= scc[v] == smallest;
  }
  expect(scc_ok, "Tarjan oracle equals brute-force mutual reachability");

  const auto reach_u = reachability(g, true);
  const auto cc = components_oracle(g);
  bool cc_ok = true;
  for (std::uint32_t v = 0; v < g.num_vertices; ++v) {
    std::uint32_t smallest = v;
    for (std::uint32_t u = 0; u < v; ++u) {
      if (reach_u[u][v]) {
        smallest = u;
        break;
      }
    }
    cc_ok &= cc[v] == smallest;
  }
  expect(cc_ok, "union-find oracle equals brute-force reachability");
}

void test_pagerank() {
  const EdgeList g = generate({.scale = 10, .edges = 8000}, 3);
  const std::vector<double> oracle = pagerank_oracle(g, 30);
  const double n = g.num_vertices;
  expect_accepts(check_pagerank(oracle, oracle), "PageRank oracle answer");

  auto r = oracle;
  r[5] += 1e-6;
  expect_rejects(check_pagerank(r, oracle), "PageRank with mass added");

  r = oracle;  // below the teleport floor, total mass kept
  const double moved = r[7] - 0.1 / n;
  r[7] = 0.1 / n;
  r[8] += moved;
  expect_rejects(check_pagerank(r, oracle), "PageRank with a rank < 0.15/n");

  r = oracle;  // sum and floor kept, one pair off by 5e-10
  r[9] += 5e-10;
  r[10] -= 5e-10;
  expect_rejects(check_pagerank(r, oracle), "PageRank 5e-10 off the oracle");

  r = oracle;
  r.pop_back();
  expect_rejects(check_pagerank(r, oracle), "PageRank of the wrong length");
}

void test_components() {
  const EdgeList g = generate(
      {.scale = 10, .edges = 600, .a = 0.45, .b = 0.22, .c = 0.22,
       .undirected = true},
      4);
  const auto oracle = components_oracle(g);
  expect_accepts(check_components(oracle, g, oracle), "S-V oracle answer");

  // Find a vertex that is not its component's minimum, and two
  // components with more than one vertex.
  std::uint32_t member = 0;
  for (std::uint32_t v = 0; v < g.num_vertices; ++v) {
    if (oracle[v] != v) {
      member = v;
      break;
    }
  }
  expect(member != 0, "the test input has a non-trivial component");

  auto l = oracle;
  l[oracle[member]] = member;  // root points upwards
  expect_rejects(check_components(l, g, oracle), "S-V with label[v] > v");

  // label[label[v]] != label[v]: point a non-root vertex at a smaller
  // non-root vertex, whose own label is smaller still.
  std::uint32_t lower = member, upper = member;
  for (std::uint32_t v = 0; v < g.num_vertices; ++v) {
    if (oracle[v] == v) continue;
    if (lower == member) {
      lower = v;
    } else if (v > lower) {
      upper = v;
      break;
    }
  }
  expect(lower < upper, "the test input has two non-root vertices");
  l = oracle;
  l[upper] = lower;
  expect_rejects(check_components(l, g, oracle),
                 "S-V with label[label[v]] != label[v]");

  l = oracle;  // a vertex made its own root: properties hold, an edge breaks
  l[member] = member;
  expect_rejects(check_components(l, g, oracle),
                 "S-V with an edge's ends labelled apart");

  // Merge a whole component into an earlier one: labels stay <= v,
  // idempotent and edge-consistent, so only the oracle comparison fails.
  l = oracle;
  const std::uint32_t a = oracle[member];
  std::uint32_t b = a;
  for (std::uint32_t v = a + 1; v < g.num_vertices; ++v) {
    if (oracle[v] != a) {
      b = oracle[v];
      break;
    }
  }
  for (std::uint32_t v = 0; v < g.num_vertices; ++v) {
    if (oracle[v] == b) l[v] = a;
  }
  expect(b > a, "the test input has a second component after the first");
  expect_rejects(check_components(l, g, oracle),
                 "S-V with two components merged");
}

void test_scc() {
  const EdgeList g = generate(
      {.scale = 8, .edges = 1500, .cycle_len = 16, .cycle_vertices = 64}, 5);
  const auto oracle = scc_oracle(g);
  expect_accepts(check_scc(oracle, oracle), "SCC oracle answer");
  auto s = oracle;
  s.back() += 1;
  expect_rejects(check_scc(s, oracle), "SCC with one id changed");
  s = oracle;
  s.pop_back();
  expect_rejects(check_scc(s, oracle), "SCC of the wrong length");
}

}  // namespace

int main() {
  test_oracles();
  test_pagerank();
  test_components();
  test_scc();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
