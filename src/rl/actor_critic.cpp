#include "rl/actor_critic.hpp"

#include <algorithm>
#include <memory>

#include "nn/stage_cache.hpp"
#include "util/expect.hpp"

namespace nptsn {
namespace {

ActorCritic::Config validated(ActorCritic::Config config) {
  NPTSN_EXPECT(config.num_nodes > 0, "num_nodes must be positive");
  NPTSN_EXPECT(config.feature_dim > 0, "feature_dim must be positive");
  NPTSN_EXPECT(config.param_dim >= 0, "param_dim must be non-negative");
  NPTSN_EXPECT(config.num_actions > 0, "num_actions must be positive");
  NPTSN_EXPECT(config.gcn_layers >= 0, "gcn_layers must be non-negative");
  if (config.embedding_dim <= 0) config.embedding_dim = 2 * config.num_nodes;
  return config;
}

}  // namespace

ActorCritic::ActorCritic(const Config& config, Rng& rng)
    : config_(validated(config)),
      gcn_([&] {
        std::vector<Linear> layers;
        if (config_.encoder != GraphEncoder::kGcn) return layers;
        int width = config_.feature_dim;
        for (int l = 0; l < config_.gcn_layers; ++l) {
          layers.emplace_back(width, config_.embedding_dim, rng);
          width = config_.embedding_dim;
        }
        return layers;
      }()),
      gat_([&] {
        std::vector<GatLayer> layers;
        if (config_.encoder != GraphEncoder::kGat) return layers;
        int width = config_.feature_dim;
        for (int l = 0; l < config_.gcn_layers; ++l) {
          layers.emplace_back(width, config_.embedding_dim, rng);
          width = config_.embedding_dim;
        }
        return layers;
      }()),
      actor_((config_.gcn_layers > 0 ? config_.embedding_dim : config_.feature_dim) +
                 config_.param_dim,
             config_.actor_hidden, config_.num_actions, rng),
      critic_((config_.gcn_layers > 0 ? config_.embedding_dim : config_.feature_dim) +
                  config_.param_dim,
              config_.critic_hidden, 1, rng) {}

Tensor ActorCritic::encode(const Observation& obs) const {
  // GAT reads dense inputs. The attention neighborhood is A_hat's sparsity
  // pattern (self loops are already part of the normalized adjacency).
  const Matrix neighborhood = obs.a_hat->to_dense();
  Tensor h = Tensor::constant(obs.features->to_dense());
  for (const auto& layer : gat_) h = layer.forward(neighborhood, h);
  Tensor embedding = mean_rows(h);
  if (config_.param_dim == 0) return embedding;
  return concat_cols(embedding, Tensor::constant(obs.params));
}

ActorCritic::ObservationBatch ActorCritic::stage_batch(
    const std::vector<const Observation*>& obs) const {
  return stage(obs, stage_cache_.get());
}

ActorCritic::ObservationBatch ActorCritic::stage(const std::vector<const Observation*>& obs,
                                                 AdjacencyStageCache* cache) const {
  NPTSN_EXPECT(!obs.empty(), "stage_batch needs at least one observation");
  const int n = config_.num_nodes;
  for (const Observation* o : obs) {
    NPTSN_EXPECT(o->features && o->features->rows() == n &&
                     o->features->cols() == config_.feature_dim,
                 "observation feature shape mismatch");
    NPTSN_EXPECT(o->a_hat && o->a_hat->rows() == n && o->a_hat->cols() == n,
                 "observation adjacency shape mismatch");
    NPTSN_EXPECT(o->params.rows() == 1 && o->params.cols() == config_.param_dim,
                 "observation parameter shape mismatch");
  }
  ObservationBatch staged;
  staged.batch = static_cast<int>(obs.size());
  staged.observations = obs;
  if (!gat_.empty()) return staged;  // per-observation fallback stages nothing

  const int batch = staged.batch;
  // The observations' CSR features and adjacencies: a batch of one shares
  // them, a larger batch stacks their arrays.
  if (batch == 1) {
    staged.features = obs.front()->features;
  } else {
    std::vector<const CsrRows*> features;
    features.reserve(obs.size());
    for (const Observation* o : obs) features.push_back(o->features.get());
    staged.features = std::make_shared<const CsrRows>(features);
  }
  if (!gcn_.empty()) {
    if (batch == 1 && cache == nullptr) {
      staged.a_hats = obs.front()->a_hat;
    } else {
      std::vector<const CsrRows*> a_hats;
      a_hats.reserve(obs.size());
      for (const Observation* o : obs) a_hats.push_back(o->a_hat.get());
      staged.a_hats = cache ? cache->stage(a_hats) : std::make_shared<const CsrRows>(a_hats);
    }
  }
  if (config_.param_dim > 0) {
    Matrix params(batch, config_.param_dim);
    for (int b = 0; b < batch; ++b) {
      const Matrix& p = obs[static_cast<std::size_t>(b)]->params;
      std::copy(p.data(), p.data() + p.size(),
                params.data() + static_cast<std::size_t>(b) * config_.param_dim);
    }
    staged.params = Tensor::constant(std::move(params));
  }
  return staged;
}

Tensor ActorCritic::encode_batch(const ObservationBatch& staged) const {
  NPTSN_EXPECT(staged.batch > 0, "encode_batch needs a staged batch");

  if (!gat_.empty()) {
    // GAT (the rejected ablation encoder) has no batched propagation; stack
    // the per-observation encodings instead.
    std::vector<Tensor> rows;
    rows.reserve(staged.observations.size());
    for (const Observation* o : staged.observations) rows.push_back(encode(*o));
    return stack_rows(rows);
  }

  std::vector<GcnWeights> weights;
  weights.reserve(gcn_.size());
  for (const auto& layer : gcn_) weights.push_back({layer.weight(), layer.bias()});
  Tensor embedding = gcn_encoder(staged.a_hats, config_.num_nodes, staged.features, weights);
  if (config_.param_dim == 0) return embedding;
  return concat_cols(embedding, staged.params);
}

ActorCritic::Output ActorCritic::forward(const Observation& obs) const {
  const Tensor encoded = encode_batch(stage({&obs}, nullptr));
  return {actor_.forward(encoded), critic_.forward(encoded)};
}

Tensor ActorCritic::forward_logits_batch(const ObservationBatch& staged) const {
  return actor_.forward(encode_batch(staged));
}

Tensor ActorCritic::forward_value_batch(const ObservationBatch& staged) const {
  return critic_.forward(encode_batch(staged));
}

std::vector<Tensor> ActorCritic::actor_parameters() const {
  std::vector<Tensor> params;
  for (const auto& layer : gcn_) layer.collect_parameters(params);
  for (const auto& layer : gat_) layer.collect_parameters(params);
  actor_.collect_parameters(params);
  return params;
}

std::vector<Tensor> ActorCritic::critic_parameters() const {
  std::vector<Tensor> params;
  for (const auto& layer : gcn_) layer.collect_parameters(params);
  for (const auto& layer : gat_) layer.collect_parameters(params);
  critic_.collect_parameters(params);
  return params;
}

std::vector<Tensor> ActorCritic::all_parameters() const {
  std::vector<Tensor> params;
  for (const auto& layer : gcn_) layer.collect_parameters(params);
  for (const auto& layer : gat_) layer.collect_parameters(params);
  actor_.collect_parameters(params);
  critic_.collect_parameters(params);
  return params;
}

void ActorCritic::copy_parameters_from(const ActorCritic& other) {
  const auto mine = all_parameters();
  const auto theirs = other.all_parameters();
  NPTSN_EXPECT(mine.size() == theirs.size(), "architecture mismatch");
  for (std::size_t i = 0; i < mine.size(); ++i) {
    NPTSN_EXPECT(mine[i].value().same_shape(theirs[i].value()), "parameter shape mismatch");
    // Tensors are shared handles; assign through the mutable value.
    Tensor dst = mine[i];
    dst.mutable_value() = theirs[i].value();
  }
}

}  // namespace nptsn
