// Compute-node descriptions.
//
// The paper's testbed is a single Rutgers Amarel node: 28 CPU cores,
// 4 NVIDIA Quadro M6000 GPUs (12 GB each), 128 GB RAM. We model nodes as
// plain counts; the ResourcePool hands out concrete core/GPU ids.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace impress::hpc {

struct NodeSpec {
  std::string name = "node";
  std::uint32_t cores = 1;
  std::uint32_t gpus = 0;
  double mem_gb = 0.0;
  /// Per-device memory (GB). 0 on a node with GPUs means the memory axis
  /// is not modeled: its devices satisfy any gpu_mem_gb request.
  double gpu_mem_gb = 0.0;
  /// Relative throughput of this node's GPU generation (1.0 = the paper's
  /// M6000 baseline). Accounting-only: the GPU batching replay divides
  /// modeled batch latency by it, but task timing never reads it — mixed
  /// generations are bit-unobservable in campaign results.
  double gpu_speed_factor = 1.0;
  /// Preemptible/spot capacity marker. Informational on the node itself;
  /// evictions are driven by FaultConfig::spot_reclaims against the pilot
  /// hosting the node (see runtime/fault.hpp).
  bool preemptible = false;
};

/// The evaluation node from the paper (§III).
[[nodiscard]] inline NodeSpec amarel_node() {
  return NodeSpec{.name = "amarel-gpu",
                  .cores = 28,
                  .gpus = 4,
                  .mem_gb = 128.0,
                  .gpu_mem_gb = 12.0};
}

/// Deterministic heterogeneous cluster for scale studies: cycles through
/// four node shapes (GPU-dense, the paper's Amarel node, CPU-fat, thin)
/// so an O(10k)-node pool mixes core/GPU/memory ratios the way a real
/// machine does. Pure function of `n` — campaigns over it stay seeded.
[[nodiscard]] inline std::vector<NodeSpec> make_cluster(std::size_t n) {
  std::vector<NodeSpec> nodes;
  nodes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string suffix = std::to_string(i);
    switch (i % 4) {
      case 0:
        // Modern generation: A100-class — 3x the M6000 baseline.
        nodes.push_back(NodeSpec{.name = "gpu-" + suffix,
                                 .cores = 64,
                                 .gpus = 8,
                                 .mem_gb = 256.0,
                                 .gpu_mem_gb = 40.0,
                                 .gpu_speed_factor = 3.0});
        break;
      case 1:
        nodes.push_back(NodeSpec{.name = "amarel-" + suffix,
                                 .cores = 28,
                                 .gpus = 4,
                                 .mem_gb = 128.0,
                                 .gpu_mem_gb = 12.0,
                                 .gpu_speed_factor = 1.0});
        break;
      case 2:
        nodes.push_back(NodeSpec{.name = "cpu-" + suffix,
                                 .cores = 128,
                                 .gpus = 0,
                                 .mem_gb = 512.0,
                                 .gpu_mem_gb = 0.0});
        break;
      default:
        // Thin nodes model the spot/preemptible tier of the cluster.
        nodes.push_back(NodeSpec{.name = "thin-" + suffix,
                                 .cores = 16,
                                 .gpus = 0,
                                 .mem_gb = 64.0,
                                 .gpu_mem_gb = 0.0,
                                 .preemptible = true});
        break;
    }
  }
  return nodes;
}

}  // namespace impress::hpc
