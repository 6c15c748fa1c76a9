// DNN workload models of Section V-B: ResNet-152, CosmoFlow, DLRM, GPT-3,
// and GPT-3 MoE.
//
// Methodology (same as the paper's): per-iteration compute times are the
// paper's A100 measurements, taken as constants; communication is modeled
// from the per-dimension volumes VD = W*Np/(O*P), VP = M*W*Na/(D*P*O),
// VO = W*No (Section V-B1) and timed against the per-topology ring /
// alltoall rates measured by CommEnv, with overlap. The exposed volumes of
// the pipeline-parallel models are calibrated once against the paper's
// nonblocking-fat-tree runtimes (documented per model below and in
// EXPERIMENTS.md); all cross-topology variation then comes from our own
// measured rates and latencies, which is what Figure 15 compares.
#pragma once

#include <string>
#include <vector>

#include "workload/comm_env.hpp"

namespace hxmesh::workload {

struct ModelResult {
  std::string model;
  double compute_ms = 0;
  double iteration_ms = 0;
  /// False when a ring or alltoall solve behind the result stopped at the
  /// filling-round cap: the overhead is then an upper bound.
  bool converged = true;
  double overhead_ms() const { return iteration_ms - compute_ms; }
};

/// Parallelism degrees of a training job (Section II).
struct Parallelism {
  int d = 1, p = 1, o = 1;
  int ranks() const { return d * p * o; }
};

/// Communication volume along the data dimension: VD = W*Np/(O*P) bytes.
double data_parallel_volume(double word_bytes, double num_params, int o,
                            int p);
/// Pipeline volume per rank: VP = M*W*Na/(D*P*O) bytes.
double pipeline_volume(double minibatch, double word_bytes,
                       double activations, int d, int p, int o);

/// ResNet-152: D=1024, pure data parallelism, 60.2M parameters, gradients
/// bucketed into 10 nonblocking allreduces overlapped with backprop;
/// compute 108 ms (paper).
ModelResult eval_resnet152(const CommEnv& env);

/// CosmoFlow: D=256, O=4; 8.9M parameters; halo exchanges and gathers in
/// the operator dimension; compute 44.3 ms (paper).
ModelResult eval_cosmoflow(const CommEnv& env);

/// DLRM: 128 ranks; 2 alltoalls (1 MB) each way plus a 2.96 MB allreduce;
/// compute 1.1 ms (paper: 95/209/796 us).
ModelResult eval_dlrm(const CommEnv& env);

/// GPT-3: P=96, O=4 (Megatron); activation tensor 100.66 MB per microbatch;
/// compute 31.8 ms (49.9 ms with 16-expert MoE, which adds alltoalls).
ModelResult eval_gpt3(const CommEnv& env, bool mixture_of_experts);

/// All five models of Figure 15, in its order.
std::vector<ModelResult> eval_all_models(const CommEnv& env);

}  // namespace hxmesh::workload
