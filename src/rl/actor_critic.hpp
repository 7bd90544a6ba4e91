// The neural network of Fig. 3: a shared GCN encoder feeding an actor MLP
// (action logits) and a critic MLP (state value). The GCN parameters appear
// in both the actor and the critic parameter sets, so they are updated twice
// per epoch, exactly as the paper describes.
#pragma once

#include <vector>

#include "nn/layers.hpp"
#include "rl/env.hpp"

namespace nptsn {

class AdjacencyStageCache;

// Graph encoder family: GCN is the paper's choice; GAT is the alternative
// it discusses and rejects (kept for the encoder ablation bench).
enum class GraphEncoder { kGcn, kGat };

class ActorCritic {
 public:
  struct Config {
    int num_nodes = 0;     // |Vc|
    int feature_dim = 0;   // F (columns of the observation feature matrix)
    int param_dim = 0;     // P (non-graph parameter vector length)
    int num_actions = 0;   // A
    int gcn_layers = 2;    // 0 disables the graph encoder (features pooled)
    int embedding_dim = 0; // graph embedding features (paper default 2 |Vc|)
    GraphEncoder encoder = GraphEncoder::kGcn;
    std::vector<int> actor_hidden = {256, 256};
    std::vector<int> critic_hidden = {256, 256};
  };

  ActorCritic(const Config& config, Rng& rng);

  struct Output {
    Tensor logits;  // 1 x A
    Tensor value;   // 1 x 1
  };
  // One observation through both heads: every rollout step and the
  // epoch-cut bootstrap. It runs the observation's own CSR features and
  // A_hat (a batch of one shares them, so nothing is staged but the
  // parameter row) through the same encoder node as the PPO update's
  // batched forwards, so its outputs are the update's rows bit for bit. The
  // stage cache is never consulted here: a per-step admission would fill it
  // with single-use forms.
  Output forward(const Observation& obs) const;

  // Everything weight-independent about a batch of observations, staged
  // once: the features as CSR rows, the stacked parameter rows, and the
  // adjacency batch. A batch of one shares its observation's CSR objects; a
  // larger batch stacks the observations' CSR arrays, row pointers rebased,
  // so no dense matrix is copied or scanned. One PPO update forwards the
  // same observations through the heads dozens of times while only the
  // weights change — stage once per update, reuse across every iteration of
  // both head loops. The source observations must outlive the staged batch
  // (the GAT fallback reads through the retained pointers).
  // params is staged as a constant Tensor (safe to reuse across tapes:
  // constants receive no gradient and hold no traversal state), and the
  // features and adjacencies are shared read-only, so a reuse copies
  // nothing.
  struct ObservationBatch {
    int batch = 0;
    std::shared_ptr<const CsrRows> features;       // (B n) x F; null for GAT
    Tensor params;                                 // constant, B x P (undefined when P == 0)
    std::shared_ptr<const CsrRows> a_hats;         // (B n) x n; null without GCN layers
    std::vector<const Observation*> observations;  // per-observation fallback path
  };
  ObservationBatch stage_batch(const std::vector<const Observation*>& obs) const;

  // Optional cross-session reuse of staged adjacency batches
  // (nn/stage_cache): when installed, stage_batch hands the observations'
  // A_hat rows to the cache, which serves a content-verified hit instead
  // of stacking them again (at any batch size, one included). Exact
  // (bit-identical forwards with the cache on or off); null uninstalls.
  // forward(obs) stages past it.
  void set_stage_cache(std::shared_ptr<AdjacencyStageCache> cache) {
    stage_cache_ = std::move(cache);
  }

  // Batched head forwards over B observations: the whole GCN encoder is one
  // tape node over the stacked batch (gcn_encoder) and every MLP layer one
  // stacked GEMM over all B inputs (the PPO-update hot path; DESIGN.md §11).
  // Row i of the result equals forward(obs[i]) bit for bit under either
  // kernel family.
  Tensor forward_logits_batch(const ObservationBatch& staged) const;  // B x A
  Tensor forward_value_batch(const ObservationBatch& staged) const;   // B x 1

  const Config& config() const { return config_; }

  // GCN + actor head (PPO gradient ascent target).
  std::vector<Tensor> actor_parameters() const;
  // GCN + critic head (value regression target).
  std::vector<Tensor> critic_parameters() const;
  std::vector<Tensor> all_parameters() const;

  // Copies parameter values from a same-architecture network.
  void copy_parameters_from(const ActorCritic& other);

 private:
  ObservationBatch stage(const std::vector<const Observation*>& obs,
                         AdjacencyStageCache* cache) const;
  // GAT's per-observation encoding, 1 x (embedding + P); GAT has no batched
  // propagation.
  Tensor encode(const Observation& obs) const;
  // B x (embedding + P); the GCN encoder runs the stacked batch as one tape
  // node, GAT falls back to per-observation encoding with a row stack.
  Tensor encode_batch(const ObservationBatch& staged) const;

  Config config_;
  std::vector<Linear> gcn_;  // Eq. 4 layer weights, run by gcn_encoder
  std::vector<GatLayer> gat_;
  Mlp actor_;
  Mlp critic_;
  std::shared_ptr<AdjacencyStageCache> stage_cache_;  // null = stage per batch
};

}  // namespace nptsn
