#pragma once
// Output checks: the oracle comparison plus properties every correct
// answer has whatever the oracle says. Each returns "" on success or a
// description of the first violation found.

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "inputs.hpp"

namespace perfbench {

inline std::string violation(const char* what, std::uint64_t v) {
  return std::string(what) + " at vertex " + std::to_string(v);
}

/// Ranks sum to 1 within 1e-9, none is below the teleport floor 0.15/n,
/// and each is within 1e-10 of the oracle.
inline std::string check_pagerank(const std::vector<double>& rank,
                                  const std::vector<double>& oracle) {
  if (rank.size() != oracle.size()) return "rank vector has the wrong size";
  const double n = static_cast<double>(rank.size());
  double sum = 0.0;
  for (const double r : rank) sum += r;
  if (!(std::fabs(sum - 1.0) <= 1e-9)) {
    return "ranks sum to " + std::to_string(sum) + ", not 1";
  }
  for (std::size_t v = 0; v < rank.size(); ++v) {
    if (!(rank[v] >= 0.15 / n)) return violation("rank below 0.15/n", v);
    if (!(std::fabs(rank[v] - oracle[v]) <= 1e-10)) {
      return violation("rank differs from the oracle by more than 1e-10", v);
    }
  }
  return "";
}

/// Labels are a rooted forest flattened to its roots (label[v] <= v,
/// label[label[v]] == label[v]), constant along every edge, and equal to
/// the oracle's component minima.
inline std::string check_components(const std::vector<std::uint32_t>& label,
                                    const EdgeList& g,
                                    const std::vector<std::uint32_t>& oracle) {
  if (label.size() != g.num_vertices || oracle.size() != g.num_vertices) {
    return "label vector has the wrong size";
  }
  for (std::uint32_t v = 0; v < label.size(); ++v) {
    if (label[v] > v) return violation("label[v] > v", v);
    if (label[label[v]] != label[v]) {
      return violation("label[label[v]] != label[v]", v);
    }
  }
  for (const Edge& e : g.edges) {
    if (label[e.src] != label[e.dst]) {
      return violation("edge ends carry different labels", e.src);
    }
  }
  for (std::uint32_t v = 0; v < label.size(); ++v) {
    if (label[v] != oracle[v]) return violation("label differs from the oracle", v);
  }
  return "";
}

/// SCC ids must equal the oracle's (smallest member id) exactly.
inline std::string check_scc(const std::vector<std::uint32_t>& scc,
                             const std::vector<std::uint32_t>& oracle) {
  if (scc.size() != oracle.size()) return "SCC vector has the wrong size";
  for (std::uint32_t v = 0; v < scc.size(); ++v) {
    if (scc[v] != oracle[v]) return violation("SCC id differs from the oracle", v);
  }
  return "";
}

}  // namespace perfbench
