// task_lifecycle — the paper's §VI experiment as a closed loop.
//
// Set-up: SNARK key generation (CPL-AA auth + the n = 11 majority-vote:4
// reward circuit), a TestNet (2 miners + 2 full nodes), and RA
// registration of one requester and 11 workers.
// Window (cold caches, fresh obs): tasks run one after another, at least
// kMinTasks of them and until the window has run for --seconds. Each task
// is RequesterClient::publish, then 11 WorkerClient::submit_answer calls, a
// wait until all 11 receipts are visible on the client node, then
// instruct_rewards. Every reward is checked against the policy and every
// reward proof is re-verified by audit_rewarded_tasks at the end.
// End-to-end figures are quantiles over all submissions or medians over
// tasks, so a host slowdown that covers a few tasks moves them only a little.

#include <algorithm>

#include "bench.h"
#include "chain/validation.h"
#include "obs/trace.h"
#include "zebralancer/policy.h"
#include "zebralancer/scenario.h"

namespace zl::perfbench {
namespace {

using namespace zl::zebralancer;

constexpr unsigned kAnswers = 11;
constexpr unsigned kChoices = 4;
constexpr const char* kPolicy = "majority-vote:4";
constexpr unsigned kMerkleDepth = 8;
constexpr std::uint64_t kConfirmDeadlineMs = 600'000;
/// At least this many tasks run, however short the window: 110 submissions
/// put ten samples beyond the p90, and the per-task medians have ten tasks.
constexpr std::uint64_t kMinTasks = 10;

/// One set-up. Heap-allocated and never moved: the clients hold references
/// to the network and the parameters.
struct Lifecycle {
  SystemParams params;
  std::unique_ptr<TestNet> net;
  auth::UserKey requester_key;
  auth::Certificate requester_cert;
  std::vector<std::unique_ptr<WorkerClient>> workers;
};

std::unique_ptr<Lifecycle> set_up(std::uint64_t seed) {
  auto l = std::make_unique<Lifecycle>();
  Rng rng(seed);
  Rng key_rng = rng.fork("perfbench-snark-setup");
  l->params = make_system_params(kMerkleDepth, {{kAnswers, kPolicy}}, key_rng);
  l->net = std::make_unique<TestNet>(TestNet::Config{.seed = seed, .merkle_depth = kMerkleDepth});
  TestNet& net = *l->net;

  l->requester_key = auth::UserKey::generate(rng);
  const std::size_t requester_leaf =
      net.register_participant("requester", l->requester_key.pk).leaf_index;
  std::vector<auth::UserKey> worker_keys;
  std::vector<std::size_t> worker_leaves;
  for (unsigned i = 0; i < kAnswers; ++i) {
    worker_keys.push_back(auth::UserKey::generate(rng));
    worker_leaves.push_back(
        net.register_participant("worker-" + std::to_string(i), worker_keys.back().pk).leaf_index);
  }
  // Certificates are fetched once the registry is complete, so every path
  // matches the on-chain root.
  l->requester_cert = net.ra().current_certificate(requester_leaf);
  for (unsigned i = 0; i < kAnswers; ++i) {
    l->workers.push_back(std::make_unique<WorkerClient>(
        net, l->params, worker_keys[i], net.ra().current_certificate(worker_leaves[i]),
        net.fork_rng("worker-" + std::to_string(i))));
  }
  return l;
}

std::vector<unsigned> answer_counts(const std::vector<Fr>& answers) {
  std::vector<unsigned> counts(kChoices + 1, 0);
  for (const Fr& a : answers) {
    unsigned v = 0;
    while (v < kChoices && !(a == Fr::from_u64(v))) ++v;
    ++counts[v];  // counts[kChoices]: not a valid choice
  }
  return counts;
}

}  // namespace

Result run_task_lifecycle(const Options& opts, Tracer& tracer) {
  Result r;
  std::vector<double> setup_s;
  std::unique_ptr<Lifecycle> l;
  zl::obs::Snapshot setup_obs;
  for (int i = 0; i < kSetupRepeats; ++i) {
    l.reset();
    zl::obs::reset();
    const Clock::time_point t0 = Clock::now();
    l = set_up(opts.seed);
    setup_s.push_back(seconds_since(t0));
    setup_obs = zl::obs::snapshot();
  }
  TestNet& net = *l->net;
  const chain::Node& client = net.client_node();
  Rng answer_rng = Rng(opts.seed).fork("perfbench-answers");
  const auto policy = IncentivePolicy::by_name(kPolicy);

  // Cold window: no signature or snark verdicts inherited from set-up.
  chain::clear_validation_caches();
  zl::obs::reset();
  zl::obs::clear_trace();

  std::vector<double> submit_s, auth_prove_ms, submit_nonprove_ms;
  std::vector<double> reward_s, reward_prove_ms, reward_nonprove_ms;
  std::vector<double> publish_ms, confirm_wait_ms, lifecycle_s, blocks_per_task;
  std::vector<double> collect_rate;  // one sample per task
  std::vector<chain::Address> tasks;
  const Clock::time_point t0 = Clock::now();
  for (std::uint64_t t = 0; t < kMinTasks || seconds_since(t0) < opts.seconds; ++t) {
    const std::uint64_t height0 = net.height();
    RequesterClient requester(net, l->params, l->requester_key, l->requester_cert,
                              net.fork_rng("requester-" + std::to_string(t)));
    const Clock::time_point task_start = Clock::now();
    chain::Address task;
    publish_ms.push_back(1e3 * tracer.time("zebralancer.publish", t, [&] {
      task = requester.publish({.budget = 1'000'000ull * kAnswers,
                                .num_answers = kAnswers,
                                .policy_name = kPolicy,
                                .answer_deadline_blocks = 500,
                                .instruct_deadline_blocks = 500},
                               net.on_chain_registry_root());
    }));
    tasks.push_back(task);

    std::vector<Fr> sent;
    std::vector<Bytes> hashes;
    const Clock::time_point collect_start = Clock::now();
    for (unsigned i = 0; i < kAnswers; ++i) {
      sent.push_back(Fr::from_u64(answer_rng.uniform(kChoices)));
      ObsDelta obs;
      const double s = tracer.time(
          "zebralancer.submit_answer", t * kAnswers + i,
          [&] { hashes.push_back(l->workers[i]->submit_answer(task, sent.back())); }, &obs);
      submit_s.push_back(s);
      auth_prove_ms.push_back(obs.span_ms("prover.prove"));
      submit_nonprove_ms.push_back(1e3 * s - auth_prove_ms.back());
    }

    confirm_wait_ms.push_back(1e3 * tracer.time("chain.confirm_wait", t, [&] {
      const std::uint64_t deadline = net.network().now() + kConfirmDeadlineMs;
      const auto all_visible = [&] {
        return std::all_of(hashes.begin(), hashes.end(),
                           [&](const Bytes& h) { return client.chain().find_receipt(h); });
      };
      while (!all_visible() && net.network().now() < deadline) net.network().run_for(50);
    }));
    collect_rate.push_back(ratio(kAnswers, seconds_since(collect_start)));
    for (unsigned i = 0; i < kAnswers; ++i) {
      const auto receipt = client.chain().find_receipt(hashes[i]);
      r.check(receipt.has_value() && receipt->success,
              "task " + std::to_string(t) + " submission " + std::to_string(i) + " not confirmed");
    }

    std::vector<std::uint64_t> rewards;
    ObsDelta obs;
    const double rs = tracer.time(
        "zebralancer.instruct_rewards", t, [&] { rewards = requester.instruct_rewards(); }, &obs);
    reward_s.push_back(rs);
    reward_prove_ms.push_back(obs.span_ms("prover.prove"));
    reward_nonprove_ms.push_back(1e3 * rs - reward_prove_ms.back());
    lifecycle_s.push_back(seconds_since(task_start));
    blocks_per_task.push_back(static_cast<double>(net.height() - height0));

    // Paid rewards follow the policy over the answers as the chain ordered
    // them, and those answers are exactly the ones sent.
    const auto* contract = client.chain().state().contract_as<TaskContract>(task);
    const std::vector<Fr> decrypted = requester.decrypted_answers();
    r.check(answer_counts(decrypted) == answer_counts(sent),
            "task " + std::to_string(t) + ": decrypted answers differ from the sent ones");
    r.check(contract != nullptr && contract->rewarded() &&
                contract->rewards() == policy->rewards(decrypted, contract->share()) &&
                contract->rewards() == rewards,
            "task " + std::to_string(t) + ": paid rewards do not match the policy");
  }
  const double window_s = seconds_since(t0);
  const zl::obs::Snapshot window_obs = zl::obs::snapshot();

  // Watchtower pass: every stored reward proof re-verifies against chain state.
  const std::vector<std::size_t> audit_failures =
      audit_rewarded_tasks(client.chain().state(), tasks);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    r.check(std::find(audit_failures.begin(), audit_failures.end(), i) == audit_failures.end(),
            "task " + std::to_string(i) + ": reward proof failed the audit");
  }

  const double n_tasks = static_cast<double>(tasks.size());
  r.report["window_s"] = window_s;
  r.report["setup_s"] = median(setup_s);
  r.report["tasks"] = n_tasks;
  r.report["submissions"] = static_cast<double>(submit_s.size());
  r.report["submit_s_p50"] = quantile(submit_s, 0.50);
  r.report["submit_s_p90"] = quantile(submit_s, 0.90);
  r.report["reward_s_p50"] = median(reward_s);
  r.report["lifecycle_s_p50"] = median(lifecycle_s);
  r.report["answers_per_s"] = median(collect_rate);
  r.report["answers_per_s_whole_window"] = ratio(n_tasks * kAnswers, window_s);

  if (!opts.trace) {
    r.metrics["setup_s"] = median(setup_s);
    r.metrics["ops_per_s"] = r.report["answers_per_s"];
    r.metrics["op_p50_ms"] = 1e3 * r.report["submit_s_p50"];
    r.metrics["op_tail_ms"] = 1e3 * r.report["submit_s_p90"];
    r.metrics["cycle_s"] = r.report["lifecycle_s_p50"];
    r.metrics["finish_s"] = r.report["reward_s_p50"];
    return r;
  }
  add_obs_metrics(r, window_obs, window_s);
  r.metrics["snark.prove_ms.auth_p50"] = median(auth_prove_ms);
  r.metrics["snark.prove_ms.reward_p50"] = median(reward_prove_ms);
  const zl::obs::SpanSample* setup_span = setup_obs.span("prover.setup");
  r.metrics["snark.setup_ms"] = setup_span ? static_cast<double>(setup_span->total_ns) / 1e6 : 0.0;
  r.metrics["zebralancer.submit_nonprove_ms_p50"] = median(submit_nonprove_ms);
  r.metrics["zebralancer.reward_nonprove_ms_p50"] = median(reward_nonprove_ms);
  r.metrics["zebralancer.publish_ms_p50"] = median(publish_ms);
  r.metrics["chain.confirm_wait_ms_p50"] = median(confirm_wait_ms);
  r.metrics["chain.blocks_per_task"] = mean(blocks_per_task);
  return r;
}

}  // namespace zl::perfbench
