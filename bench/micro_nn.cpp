// Micro-benchmark: the NN compute core (DESIGN.md §11).
//
// Two layers of measurement:
//
//   "gemm"      — the kernel pair in isolation. Every GEMM orientation the
//                 training loop exercises (forward A*B, the two gradient
//                 orientations A*B^T and A^T*B, and the fused bias+ReLU
//                 affine), at the exact shapes the ADS and ORION encoders
//                 produce in fast mode, plus the ORION GCN backward: delta *
//                 W^T, the dense weight gradient x^T * delta and the first
//                 layer's over the CSR-staged features, the per-graph
//                 backprop through A-hat, and the whole batched encoder node
//                 (forward and backward), on real observations; and the
//                 256-wide heads ads_plan runs (57 -> 256 -> 256 -> 20).
//                 Reference vs fast family, best-of-reps, with the GFLOP/s
//                 of each (2 m k n over the best time: for the entries over
//                 the CSR features or A-hat, which skip most of that shape,
//                 it only compares the families), plus a differential check
//                 (the families must agree to ~1e-12 relative — FMA
//                 contraction only).
//
//   "elementwise" — the tanh of the MLP heads' hidden layers over a 256 x
//                 256 block drawn like their pre-activations on ADS (N(0,
//                 0.35): 86% below 0.52 in magnitude): std::tanh, as the
//                 reference family applies it, against the dispatched fast
//                 table's tanh. The fast tanh must return libm's bits; any
//                 differing output exits 1, so CI fails on a divergence.
//
//   "scenarios" — the epoch forward: one staged 256-observation rollout
//                 batch pushed through the encoder node and the actor AND
//                 critic heads, the way ppo_update consumes a batch. The
//                 batch is staged once outside the timed region (staging is
//                 weight-independent; an update stages once) and forwarded
//                 under the reference and the fast family inside a
//                 BufferRecycleScope, as the trainer runs its update, so the
//                 ratio isolates the kernel family like every gemm entry. Each
//                 scenario also prints the training bits of each family,
//                 update_digest_reference and update_digest_fast: a 64-bit
//                 FNV-1a hash of every parameter and both Adam moment sets
//                 after two ppo_update calls on that batch. They are strings,
//                 so the gate ignores them; a kernel change that keeps the
//                 bits keeps both, in every build configuration.
//
// Output is a single JSON document on stdout (the shared micro-bench schema:
// name-keyed objects; metrics named speedup* are tracked by
// tools/bench_compare as higher-is-better, and CI fails a drop of more than
// 30% against bench/results/micro_nn_fast.json). "fast_table" names the fast
// table the host dispatched to (x86-64-v4 or x86-64-v3); like the digests
// it is a string the gate ignores.
//
//   micro_nn [--fast|--paper]
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "bench/common.hpp"
#include "core/environment.hpp"
#include "core/observation_encoder.hpp"
#include "core/planner.hpp"
#include "nn/kernels.hpp"
#include "rl/actor_critic.hpp"
#include "rl/distribution.hpp"
#include "rl/ppo.hpp"
#include "scenarios/ads.hpp"
#include "scenarios/orion.hpp"
#include "scenarios/scenario.hpp"
#include "tsn/recovery.hpp"
#include "util/rng.hpp"

namespace nptsn::bench {
namespace {

// Keeps optimizers honest: every timed loop folds its outputs in here.
volatile double g_sink = 0.0;

Matrix random_matrix(int rows, int cols, Rng& rng) {
  Matrix m(rows, cols);
  for (int i = 0; i < m.size(); ++i) m.data()[i] = rng.uniform(-1.0, 1.0);
  return m;
}

double max_rel_err(const Matrix& a, const Matrix& b) {
  double worst = 0.0;
  for (int i = 0; i < a.size(); ++i) {
    const double denom = std::max({std::fabs(a.data()[i]), std::fabs(b.data()[i]), 1.0});
    worst = std::max(worst, std::fabs(a.data()[i] - b.data()[i]) / denom);
  }
  return worst;
}

// One GEMM orientation at one shape. op runs the kernel once and returns the
// result; it is timed under both kernel families with the same inputs.
// iter_scale multiplies the iterations of one repetition, for entries whose
// timed region is too short to settle at the default count.
template <typename Op>
void bench_gemm(const char* name, int m, int k, int n, int reps, bool last, const Op& op,
                int iter_scale = 1) {
  // Enough iterations that the timed region dwarfs clock granularity, capped
  // so tiny shapes do not dominate the bench's wall clock.
  const double flops = 2.0 * m * k * n;
  const int iters =
      iter_scale *
      static_cast<int>(std::min(2000.0, std::max(3.0, 1.5e8 / std::max(flops, 1.0))));

  set_nn_kernel(NnKernel::kReference);
  const Matrix ref = op();
  set_nn_kernel(NnKernel::kFast);
  const Matrix fast = op();
  const double err = max_rel_err(ref, fast);
  if (err > 1e-9) {
    std::fprintf(stderr, "%s: kernel families disagree (max rel err %g)\n", name, err);
    std::exit(1);
  }

  double ref_s = 0.0;
  double fast_s = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    set_nn_kernel(NnKernel::kReference);
    {
      const Stopwatch watch;
      for (int i = 0; i < iters; ++i) g_sink = g_sink + op().at(0, 0);
      const double seconds = watch.seconds();
      if (rep == 0 || seconds < ref_s) ref_s = seconds;
    }
    set_nn_kernel(NnKernel::kFast);
    {
      const Stopwatch watch;
      for (int i = 0; i < iters; ++i) g_sink = g_sink + op().at(0, 0);
      const double seconds = watch.seconds();
      if (rep == 0 || seconds < fast_s) fast_s = seconds;
    }
  }

  const auto gflops = [&](double seconds) {
    return seconds > 0.0 ? flops * iters / seconds * 1e-9 : 0.0;
  };
  std::printf(
      "    {\n"
      "      \"name\": \"%s\",\n"
      "      \"m\": %d, \"k\": %d, \"n\": %d,\n"
      "      \"iters\": %d,\n"
      "      \"seconds_reference\": %.6f,\n"
      "      \"seconds_fast\": %.6f,\n"
      "      \"gflops_reference\": %.2f,\n"
      "      \"gflops_fast\": %.2f,\n"
      "      \"speedup\": %.3f,\n"
      "      \"max_rel_err\": %.3g\n"
      "    }%s\n",
      name, m, k, n, iters, ref_s, fast_s, gflops(ref_s), gflops(fast_s),
      fast_s > 0.0 ? ref_s / fast_s : 0.0, err, last ? "" : ",");
}

// Collects one epoch worth of steps (observation, mask, action, reward) by
// rolling the planning environment with uniformly random masked actions (the
// observation distribution the trainer actually sees, without paying for
// PPO updates).
std::vector<StepRecord> rollout_steps(const PlanningProblem& problem,
                                      const NptsnConfig& config, int steps) {
  const HeuristicRecovery nbf;
  SolutionRecorder recorder;
  Rng rng(17);
  PlanningEnv env(problem, nbf, config, recorder, rng.split());
  std::vector<StepRecord> records;
  records.reserve(static_cast<std::size_t>(steps));
  env.reset();
  while (static_cast<int>(records.size()) < steps) {
    StepRecord s;
    s.mask = env.action_mask();
    std::vector<int> allowed;
    for (std::size_t a = 0; a < s.mask.size(); ++a) {
      if (s.mask[a] != 0) allowed.push_back(static_cast<int>(a));
    }
    if (allowed.empty()) {
      env.reset();
      continue;
    }
    s.obs = env.observe();
    s.action = rng.pick(allowed);
    const Environment::StepResult result = env.step(s.action);
    s.reward = result.reward;
    records.push_back(std::move(s));
    if (result.episode_end) env.reset();
  }
  return records;
}

std::uint64_t fnv1a(std::uint64_t hash, const Matrix& m) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(m.data());
  for (std::size_t i = 0; i < static_cast<std::size_t>(m.size()) * sizeof(double); ++i) {
    hash = (hash ^ bytes[i]) * 1099511628211ull;
  }
  return hash;
}

// The training bits of `family`: a fresh network (Rng(3), as the timed
// forwards use) takes two ppo_update calls with the scenario's PPO
// configuration on a batch of the rollout's steps, built the way
// tests/testing/orion_batch.hpp builds one: behavior log-probabilities and
// values from the network itself, so the update starts at ratio 1,
// advantages uniform in [-1, 1) from Rng(23), returns the rewards. Returns
// the FNV-1a hash of every parameter, then every first and second Adam
// moment of the actor and then the critic optimizer.
std::uint64_t update_digest(const ActorCritic::Config& net_config, const NptsnConfig& config,
                            const std::vector<StepRecord>& steps, NnKernel family) {
  set_nn_kernel(family);
  Rng net_rng(3);
  const ActorCritic net(net_config, net_rng);
  Batch batch;
  Rng rng(23);
  for (const StepRecord& step : steps) {
    StepRecord s = step;
    const ActorCritic::Output forward = net.forward(s.obs);
    s.log_prob = std::log(
        masked_probabilities(forward.logits.value(), s.mask)[static_cast<std::size_t>(s.action)]);
    s.value = forward.value.item();
    batch.advantages.push_back(2.0 * rng.uniform() - 1.0);
    batch.returns.push_back(s.reward);
    batch.steps.push_back(std::move(s));
  }
  Adam actor_opt(net.actor_parameters(), {.learning_rate = config.actor_lr});
  Adam critic_opt(net.critic_parameters(), {.learning_rate = config.critic_lr});
  PpoConfig ppo;
  ppo.clip_ratio = config.clip_ratio;
  ppo.train_actor_iters = config.train_actor_iters;
  ppo.train_critic_iters = config.train_critic_iters;
  ppo.target_kl = config.target_kl;
  for (int update = 0; update < 2; ++update) {
    ppo_update(net, actor_opt, critic_opt, batch, ppo);
  }
  std::uint64_t hash = 14695981039346656037ull;
  for (const Tensor& p : net.all_parameters()) hash = fnv1a(hash, p.value());
  for (const Adam* opt : {&actor_opt, &critic_opt}) {
    for (const Matrix& m : opt->first_moments()) hash = fnv1a(hash, m);
    for (const Matrix& v : opt->second_moments()) hash = fnv1a(hash, v);
  }
  return hash;
}

// The "elementwise" tanh entry (see the header comment).
void bench_tanh(int reps) {
  constexpr int kRows = 256;
  constexpr int kCols = 256;
  constexpr int kIters = 40;
  Rng rng(31);
  Matrix x(kRows, kCols);
  for (int e = 0; e < x.size(); ++e) x.data()[e] = 0.35 * rng.normal();
  Matrix ref(kRows, kCols);
  Matrix fast(kRows, kCols);
  const std::size_t count = static_cast<std::size_t>(x.size());
  for (std::size_t e = 0; e < count; ++e) ref.data()[e] = std::tanh(x.data()[e]);
  const nnk::KernelTable& table = nnk::kernel_table(NnKernel::kFast);
  table.tanh(x.data(), count, fast.data());
  int mismatches = 0;
  for (std::size_t e = 0; e < count; ++e) {
    if (std::memcmp(&ref.data()[e], &fast.data()[e], sizeof(double)) != 0) ++mismatches;
  }
  if (mismatches != 0) {
    std::fprintf(stderr, "tanh: fast tanh differs from std::tanh in %d of %zu outputs\n",
                 mismatches, count);
    std::exit(1);
  }

  double ref_s = 0.0;
  double fast_s = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    {
      const Stopwatch watch;
      for (int i = 0; i < kIters; ++i) {
        for (std::size_t e = 0; e < count; ++e) ref.data()[e] = std::tanh(x.data()[e]);
        g_sink = g_sink + ref.data()[i];
      }
      const double seconds = watch.seconds();
      if (rep == 0 || seconds < ref_s) ref_s = seconds;
    }
    {
      const Stopwatch watch;
      for (int i = 0; i < kIters; ++i) {
        table.tanh(x.data(), count, fast.data());
        g_sink = g_sink + fast.data()[i];
      }
      const double seconds = watch.seconds();
      if (rep == 0 || seconds < fast_s) fast_s = seconds;
    }
  }

  std::printf(
      "    {\n"
      "      \"name\": \"tanh\",\n"
      "      \"rows\": %d, \"cols\": %d,\n"
      "      \"iters\": %d,\n"
      "      \"seconds_reference\": %.6f,\n"
      "      \"seconds_fast\": %.6f,\n"
      "      \"speedup\": %.3f,\n"
      "      \"mismatches\": %d\n"
      "    }\n",
      kRows, kCols, kIters, ref_s, fast_s, fast_s > 0.0 ? ref_s / fast_s : 0.0, mismatches);
}

void bench_scenario(const char* name, const PlanningProblem& problem, const Mode& mode,
                    int reps, bool last) {
  const NptsnConfig config = training_config(mode, /*seed=*/11);
  const int steps = config.steps_per_epoch;
  const std::vector<StepRecord> records = rollout_steps(problem, config, steps);

  const ObservationEncoder encoder(problem, config.path_actions);
  ActorCritic::Config net_config;
  net_config.num_nodes = problem.num_nodes();
  net_config.feature_dim = encoder.feature_dim();
  net_config.param_dim = encoder.param_dim();
  net_config.num_actions = problem.num_switches() + config.path_actions;
  net_config.gcn_layers = config.gcn_layers;
  net_config.embedding_dim = config.embedding_dim;
  net_config.actor_hidden = config.mlp_hidden;
  net_config.critic_hidden = config.mlp_hidden;
  Rng net_rng(3);
  const ActorCritic net(net_config, net_rng);

  std::vector<const Observation*> ptrs;
  ptrs.reserve(records.size());
  for (const StepRecord& r : records) ptrs.push_back(&r.obs);

  const ActorCritic::ObservationBatch staged = net.stage_batch(ptrs);

  // Differential sanity, in each family: every batched row of both heads
  // equals the rollout's forward(obs), bit for bit; and the families agree
  // to the FMA-contraction envelope.
  Matrix family_logits[2];
  Matrix family_values[2];
  for (const NnKernel kernel : {NnKernel::kReference, NnKernel::kFast}) {
    set_nn_kernel(kernel);
    Matrix& logits = family_logits[kernel == NnKernel::kFast ? 1 : 0];
    Matrix& values = family_values[kernel == NnKernel::kFast ? 1 : 0];
    logits = net.forward_logits_batch(staged).value();
    values = net.forward_value_batch(staged).value();
    double err = 0.0;
    for (std::size_t i = 0; i < records.size(); ++i) {
      const int row = static_cast<int>(i);
      const ActorCritic::Output single = net.forward(records[i].obs);
      for (int j = 0; j < logits.cols(); ++j) {
        err = std::max(err, std::fabs(logits.at(row, j) - single.logits.value().at(0, j)));
      }
      err = std::max(err, std::fabs(values.at(row, 0) - single.value.item()));
    }
    if (err != 0.0) {
      std::fprintf(stderr, "%s: batched forward is not bit-identical (err %g)\n", name, err);
      std::exit(1);
    }
  }
  const double err = std::max(max_rel_err(family_logits[0], family_logits[1]),
                              max_rel_err(family_values[0], family_values[1]));
  if (err > 1e-9) {
    std::fprintf(stderr, "%s: kernel families disagree (max rel err %g)\n", name, err);
    std::exit(1);
  }

  // Timed inside a buffer recycler, as training runs its forwards (the
  // trainer's scope): without one, every rep's 8.7 MB of ORION encoder
  // temporaries would go through glibc's mmap and trim heuristics, and the
  // ratio would measure those as much as the kernels.
  double ref_s = 0.0;
  double fast_s = 0.0;
  {
    const BufferRecycleScope recycle;
    for (int rep = 0; rep < reps; ++rep) {
      for (const NnKernel kernel : {NnKernel::kReference, NnKernel::kFast}) {
        set_nn_kernel(kernel);
        const Stopwatch watch;
        g_sink = g_sink + net.forward_logits_batch(staged).value().at(0, 0) +
                 net.forward_value_batch(staged).value().at(0, 0);
        const double seconds = watch.seconds();
        double& best = kernel == NnKernel::kFast ? fast_s : ref_s;
        if (rep == 0 || seconds < best) best = seconds;
      }
    }
  }

  const std::uint64_t digest_reference =
      update_digest(net_config, config, records, NnKernel::kReference);
  const std::uint64_t digest_fast = update_digest(net_config, config, records, NnKernel::kFast);

  std::printf(
      "    {\n"
      "      \"name\": \"%s\",\n"
      "      \"batch\": %d,\n"
      "      \"nodes\": %d,\n"
      "      \"feature_dim\": %d,\n"
      "      \"seconds_reference\": %.6f,\n"
      "      \"seconds_fast\": %.6f,\n"
      "      \"speedup_epoch_forward\": %.3f,\n"
      "      \"max_rel_err\": %.3g,\n"
      "      \"update_digest_reference\": \"%016llx\",\n"
      "      \"update_digest_fast\": \"%016llx\"\n"
      "    }%s\n",
      name, steps, problem.num_nodes(), encoder.feature_dim(), ref_s, fast_s,
      fast_s > 0.0 ? ref_s / fast_s : 0.0, err,
      static_cast<unsigned long long>(digest_reference),
      static_cast<unsigned long long>(digest_fast), last ? "" : ",");
}

int run(int argc, char** argv) {
  const Mode mode = Mode::parse(argc, argv);
  const int reps = mode.paper ? 5 : 3;

  const auto ads = make_ads();
  const auto ads_problem = with_flows(ads, ads_flows());
  const auto orion = make_orion();
  Rng flow_rng(7);
  const auto orion_problem =
      with_flows(orion, random_flows(orion.problem, mode.paper ? 8 : 4, flow_rng));

  const NptsnConfig fast_config = training_config(mode, 11);
  const int batch = fast_config.steps_per_epoch;

  std::printf("{\n  \"bench\": \"micro_nn\",\n  \"mode\": \"%s\",\n"
              "  \"reps\": %d,\n  \"fast_table\": \"%s\",\n  \"gemm\": [\n",
              mode.paper ? "paper" : "fast", reps, nnk::kernel_table(NnKernel::kFast).name);

  // Shapes from the ADS encoder in the selected mode: stacked batched-GCN
  // affine, per-graph propagation, gradient orientations, MLP hidden layers.
  {
    const ObservationEncoder encoder(ads_problem, fast_config.path_actions);
    const int n = ads_problem.num_nodes();
    const int f = encoder.feature_dim();
    const int e = fast_config.embedding_dim > 0 ? fast_config.embedding_dim : 2 * n;
    const int p = encoder.param_dim();
    const int h = fast_config.mlp_hidden.front();
    Rng rng(23);
    const Matrix stacked = random_matrix(batch * n, f, rng);
    const Matrix w = random_matrix(f, e, rng);
    const Matrix bias = random_matrix(1, e, rng);
    const Matrix a_hat = random_matrix(n, n, rng);
    const Matrix h_small = random_matrix(n, e, rng);
    const Matrix grad = random_matrix(batch * n, e, rng);
    const Matrix emb = random_matrix(batch, e + p, rng);
    const Matrix w1 = random_matrix(e + p, h, rng);
    const Matrix h1 = random_matrix(batch, h, rng);
    const Matrix w2 = random_matrix(h, h, rng);

    bench_gemm("ads_gcn_affine", batch * n, f, e, reps, false,
               [&] { return matmul(stacked, w); });
    // Eight times the iterations (120), for a longer timed region. The
    // ratio is still bimodal from process to process (1.90-2.89 over twelve
    // runs, the reference side's time moving; EXPERIMENTS.md).
    bench_gemm(
        "ads_gcn_affine_fused_relu", batch * n, f, e, reps, false,
        [&] { return affine(stacked, w, &bias, Epilogue::kRelu); }, /*iter_scale=*/8);
    bench_gemm("ads_gcn_propagate", n, n, e, reps, false,
               [&] { return matmul(a_hat, h_small); });
    bench_gemm("ads_grad_dx", batch * n, e, f, reps, false,
               [&] { return matmul_transposed(grad, w); });
    bench_gemm("ads_grad_dw", f, batch * n, e, reps, false,
               [&] { return matmul_transposed_a(stacked, grad); });
    bench_gemm("ads_mlp_hidden1", batch, e + p, h, reps, false,
               [&] { return matmul(emb, w1); });
    bench_gemm("ads_mlp_hidden2", batch, h, h, reps, false,
               [&] { return matmul(h1, w2); });
    // The heads ads_plan runs at every scale (NptsnConfig's 256 x 256
    // hidden layers over the 57-wide embedding, 20 actions): the hidden
    // layer and the actor's logits over a 256-step batch.
    const int wide = NptsnConfig{}.mlp_hidden.front();
    const int actions = ads_problem.num_switches() + NptsnConfig{}.path_actions;
    const Matrix x_wide = random_matrix(batch, wide, rng);
    const Matrix w_wide = random_matrix(wide, wide, rng);
    const Matrix w_logits = random_matrix(wide, actions, rng);
    bench_gemm("ads_plan_hidden", batch, wide, wide, reps, false,
               [&] { return matmul(x_wide, w_wide); });
    bench_gemm("ads_plan_logits", batch, wide, actions, reps, false,
               [&] { return matmul(x_wide, w_logits); });
  }
  // The ORION encoder is the larger graph; its stacked affine is the single
  // most expensive GEMM of a training epoch, and its backward products are
  // where a PPO update spends most of its time.
  {
    const ObservationEncoder encoder(orion_problem, fast_config.path_actions);
    const int n = orion_problem.num_nodes();
    const int f = encoder.feature_dim();
    const int e = fast_config.embedding_dim > 0 ? fast_config.embedding_dim : 2 * n;
    Rng rng(29);
    const Matrix stacked = random_matrix(batch * n, f, rng);
    const Matrix w = random_matrix(f, e, rng);
    const Matrix hidden = random_matrix(batch * n, e, rng);
    const Matrix w2 = random_matrix(e, e, rng);
    const Matrix grad = random_matrix(batch * n, e, rng);
    // Real observations: their CSR features stacked, as the first GCN
    // layer's products read them, and their symmetric A-hat rows stacked,
    // which the backward propagates through.
    const std::vector<StepRecord> records = rollout_steps(orion_problem, fast_config, batch);
    std::vector<const CsrRows*> features;
    std::vector<const CsrRows*> a_hats;
    for (const StepRecord& r : records) {
      features.push_back(r.obs.features.get());
      a_hats.push_back(r.obs.a_hat.get());
    }
    const auto staged_features = std::make_shared<const CsrRows>(features);
    const auto adj = std::make_shared<const CsrRows>(a_hats);
    bench_gemm("orion_gcn_affine", batch * n, f, e, reps, false,
               [&] { return matmul(stacked, w); });
    bench_gemm("orion_grad_dx", batch * n, e, e, reps, false,
               [&] { return matmul_transposed(grad, w2); });
    bench_gemm("orion_grad_dw", e, batch * n, e, reps, false,
               [&] { return matmul_transposed_a(hidden, grad); });
    bench_gemm("orion_grad_dw_features", f, batch * n, e, reps, false, [&] {
      // x^T delta of the first layer over the staged CSR features, through
      // the encoder's primitive of the active family. The features hold
      // about 2.5% of the shape's entries, so the shape-based count left
      // the timed region at 1.5 ms; 40 times the iterations make it 60 ms.
      Matrix out(f, e);
      nnk::kernel_table(nn_kernel())
          .matmul_tn_resume_csr(*staged_features, 0, batch * n, grad.data(), e, out.data());
      return out;
    }, /*iter_scale=*/40);
    bench_gemm("orion_gcn_backprop", batch * n, n, e, reps, false, [&] {
      // A-hat_g delta_g for every graph, through the encoder's per-graph
      // CSR product of the active family.
      const nnk::KernelTable& kernels = nnk::kernel_table(nn_kernel());
      Matrix out = Matrix::uninitialized(grad.rows(), grad.cols());
      for (int g = 0; g < batch; ++g) {
        const std::size_t at = static_cast<std::size_t>(g) * n * e;
        kernels.affine_csr(*adj, g * n, n, grad.data() + at, e, nullptr, Epilogue::kNone,
                           out.data() + at);
      }
      return out;
    });
    // The whole batched encoder node as a PPO iteration drives it: two GCN
    // layers forward over the real features and adjacencies, the readout,
    // and the streamed backward. The result row holds the embedding and
    // every weight and bias gradient.
    const Matrix w1 = random_matrix(f, e, rng);
    const Matrix b1 = random_matrix(1, e, rng);
    const Matrix b2 = random_matrix(1, e, rng);
    const Matrix upstream = random_matrix(batch, e, rng);
    bench_gemm("orion_gcn_encoder", batch * n, f, e, reps, true, [&] {
      const std::vector<GcnWeights> layers = {
          {Tensor::parameter(w1), Tensor::parameter(b1)},
          {Tensor::parameter(w2), Tensor::parameter(b2)}};
      const Tensor embedding = gcn_encoder(adj, n, staged_features, layers);
      sum_all(hadamard(embedding, Tensor::constant(upstream))).backward();
      std::vector<const Matrix*> parts = {&embedding.value()};
      for (const GcnWeights& layer : layers) {
        parts.push_back(&layer.weight.grad());
        parts.push_back(&layer.bias.grad());
      }
      int total = 0;
      for (const Matrix* m : parts) total += m->size();
      Matrix flat = Matrix::uninitialized(1, total);
      double* dst = flat.data();
      for (const Matrix* m : parts) dst = std::copy(m->data(), m->data() + m->size(), dst);
      return flat;
    });
  }

  std::printf("  ],\n  \"elementwise\": [\n");
  bench_tanh(reps);
  std::printf("  ],\n  \"scenarios\": [\n");
  bench_scenario("ADS", ads_problem, mode, reps, /*last=*/false);
  bench_scenario("ORION", orion_problem, mode, reps, /*last=*/true);
  std::printf("  ]\n}\n");
  return 0;
}

}  // namespace
}  // namespace nptsn::bench

int main(int argc, char** argv) { return nptsn::bench::run(argc, argv); }
