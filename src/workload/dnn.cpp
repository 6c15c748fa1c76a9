#include "workload/dnn.hpp"

#include <algorithm>
#include <cmath>

namespace hxmesh::workload {

double data_parallel_volume(double word_bytes, double num_params, int o,
                            int p) {
  return word_bytes * num_params / (o * p);
}

double pipeline_volume(double minibatch, double word_bytes,
                       double activations, int d, int p, int o) {
  return minibatch * word_bytes * activations / (d * p * o);
}

namespace {

// Serial-on-the-network bucket schedule: bucket i becomes ready during the
// backward pass and its (nonblocking) allreduce starts when both the data
// and the network are ready. Returns the exposed tail beyond compute_s.
double bucketed_allreduce_exposure(double compute_s, double backward_s,
                                   int buckets, double t_bucket) {
  double forward_end = compute_s - backward_s;
  double net_free = 0.0, finish = 0.0;
  for (int i = 0; i < buckets; ++i) {
    double ready = forward_end + backward_s * (i + 1) / buckets;
    double start = std::max(ready, net_free);
    finish = start + t_bucket;
    net_free = finish;
  }
  return std::max(0.0, finish - compute_s);
}

}  // namespace

ModelResult eval_resnet152(const CommEnv& env) {
  const int d = std::min(1024, env.topology().num_endpoints());
  const double compute_ms = 108.0;       // paper, 1024 A100s
  const double backward_ms = compute_ms * 2.0 / 3.0;
  const double grads = 60.2e6 * 4.0;     // FP32 bytes
  const int buckets = 10;

  MappedRing ring = env.rings_strided(d, 1);
  double t_bucket = env.t_allreduce(ring, grads / buckets);
  double exposed_s = bucketed_allreduce_exposure(
      compute_ms / 1e3, backward_ms / 1e3, buckets, t_bucket);
  return {"ResNet-152", compute_ms, compute_ms + exposed_s * 1e3,
          ring.converged};
}

ModelResult eval_cosmoflow(const CommEnv& env) {
  const Parallelism par{.d = 256, .p = 1, .o = 4};
  const double compute_ms = 44.3;  // paper
  const double backward_ms = compute_ms / 2.0;
  const double grads = data_parallel_volume(4.0, 8.9e6, par.o, par.p);

  // Operator dimension: halo exchanges between the 4 partners for each of
  // the 7 convolution stages, forward and backward, local batch 32. One
  // halo slice of the 128^3 x 4 input at FP32 is 128*128*4*4 B; deeper
  // layers shrink spatially but grow in channels — we keep the input-sized
  // slice as a representative volume.
  const double halo_bytes = 128.0 * 128.0 * 4.0 * 4.0 * 32.0;
  const int exchanges = 7 * 2;
  MappedRing o_ring = env.rings_consecutive(par.ranks(), par.o);
  double t_halo = exchanges * env.t_p2p(o_ring, halo_bytes);

  // Data dimension: bucketed allreduce of the 35.6 MB gradients (VD /= O).
  MappedRing d_ring = env.rings_strided(par.ranks(), par.o);
  double t_bucket = env.t_allreduce(d_ring, grads / 4);
  double exposed = bucketed_allreduce_exposure(compute_ms / 1e3,
                                               backward_ms / 1e3, 4, t_bucket);
  // Halos overlap with the convolution compute except a ~10% tail.
  exposed += 0.1 * t_halo;
  return {"CosmoFlow", compute_ms, compute_ms + exposed * 1e3,
          o_ring.converged && d_ring.converged};
}

ModelResult eval_dlrm(const CommEnv& env) {
  const int ranks = std::min(128, env.topology().num_endpoints());
  const double compute_ms = 0.095 + 0.209 + 0.796;  // embed/interact/MLP
  // Two alltoalls forward, two backward (1 MB each across the job), one
  // 2.96 MB allreduce for the MLP gradients; latency-bound, not overlapped.
  const double a2a_pair = 1e6 / ranks;
  bool converged = true;
  double t = 4.0 * env.t_alltoall(ranks, a2a_pair, &converged);
  MappedRing ring = env.rings_strided(ranks, 1);
  t += env.t_allreduce(ring, 2.96e6);
  return {"DLRM", compute_ms, compute_ms + t * 1e3,
          converged && ring.converged};
}

ModelResult eval_gpt3(const CommEnv& env, bool mixture_of_experts) {
  const Parallelism par{.d = 1, .p = 96, .o = 4};
  const double compute_ms = mixture_of_experts ? 49.9 : 31.8;  // paper

  // Megatron-style operator allreduces (one per MHA + one per FF, forward
  // and backward) and pipeline sends of the 100.66 MB activation tensor
  // (4 B x 2,048 seq x 12,288 embed). Most of this traffic overlaps with
  // the pipeline compute; the *exposed* volumes below are calibrated so the
  // nonblocking fat tree lands at the paper's measured overhead (3.0 ms for
  // GPT-3, 2.3 ms MoE), leaving all cross-topology variation to the
  // measured rates.
  const double act_bytes = 4.0 * 2048.0 * 12288.0;
  const double exposed_o_volume = 2.0 * act_bytes;  // ~201 MB
  const double exposed_p_volume = act_bytes / par.o; // one stage handoff

  MappedRing o_ring = env.rings_consecutive(par.ranks(), par.o);
  MappedRing p_ring = env.rings_strided(par.ranks(), par.o);
  double t = env.t_allreduce(o_ring, exposed_o_volume) +
             env.t_p2p(p_ring, exposed_p_volume) +
             2.0 * par.p * p_ring.alpha_s;  // pipeline fill/drain latency
  bool converged = o_ring.converged && p_ring.converged;
  if (mixture_of_experts) {
    // Two alltoalls among the 16 experts per pass; exposed volume is one
    // expert's activation share per rank.
    const double expert_pair = act_bytes / 16.0;
    t += 2.0 * env.t_alltoall(16, expert_pair, &converged);
  }
  return {mixture_of_experts ? "GPT-3 MoE" : "GPT-3", compute_ms,
          compute_ms + t * 1e3, converged};
}

std::vector<ModelResult> eval_all_models(const CommEnv& env) {
  return {eval_resnet152(env), eval_gpt3(env, false), eval_gpt3(env, true),
          eval_cosmoflow(env), eval_dlrm(env)};
}

}  // namespace hxmesh::workload
