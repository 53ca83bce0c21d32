// Native-engine tests: the threaded implementations
// must agree bit-for-bit with std::upper_bound, like the simulator.
#include <gtest/gtest.h>

#include "src/core/native_engine.hpp"
#include "src/util/bytes.hpp"
#include "src/util/rng.hpp"
#include "src/workload/workload.hpp"

namespace dici::core {
namespace {

struct Fixture {
  std::vector<key_t> keys;
  std::vector<key_t> queries;
  std::vector<rank_t> expected;
};

const Fixture& fixture() {
  static const Fixture f = [] {
    Fixture fx;
    Rng rng(424242);
    fx.keys = workload::make_sorted_unique_keys(50000, rng);
    fx.queries = workload::make_uniform_queries(80000, rng);
    fx.expected = workload::reference_ranks(fx.keys, fx.queries);
    return fx;
  }();
  return f;
}

class NativeMethodParam : public ::testing::TestWithParam<Method> {};

TEST_P(NativeMethodParam, ExactResults) {
  const auto& fx = fixture();
  NativeConfig cfg;
  cfg.method = GetParam();
  cfg.num_nodes = 4;
  cfg.batch_bytes = 16 * KiB;
  std::vector<rank_t> ranks;
  const auto report = NativeCluster(cfg).run(fx.keys, fx.queries, &ranks);
  ASSERT_EQ(ranks.size(), fx.expected.size());
  for (std::size_t i = 0; i < ranks.size(); ++i)
    ASSERT_EQ(ranks[i], fx.expected[i]) << "query index " << i;
  EXPECT_EQ(report.num_queries, fx.queries.size());
  EXPECT_GT(report.seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, NativeMethodParam,
                         ::testing::Values(Method::kA, Method::kB,
                                           Method::kC1, Method::kC2,
                                           Method::kC3),
                         [](const auto& info) {
                           std::string n = method_name(info.param);
                           n.erase(std::remove(n.begin(), n.end(), '-'),
                                   n.end());
                           return n;
                         });

TEST(NativeCluster, SingleSlave) {
  const auto& fx = fixture();
  NativeConfig cfg;
  cfg.method = Method::kC3;
  cfg.num_nodes = 2;
  std::vector<rank_t> ranks;
  NativeCluster(cfg).run(fx.keys, fx.queries, &ranks);
  EXPECT_EQ(ranks, fx.expected);
}

TEST(NativeCluster, ManySlaves) {
  const auto& fx = fixture();
  NativeConfig cfg;
  cfg.method = Method::kC3;
  cfg.num_nodes = 17;
  std::vector<rank_t> ranks;
  const auto report = NativeCluster(cfg).run(fx.keys, fx.queries, &ranks);
  EXPECT_EQ(ranks, fx.expected);
  EXPECT_GT(report.messages, 0u);
}

TEST(NativeCluster, TinyBatches) {
  const auto& fx = fixture();
  NativeConfig cfg;
  cfg.method = Method::kC3;
  cfg.num_nodes = 3;
  cfg.batch_bytes = sizeof(key_t);  // one key per round
  std::vector<rank_t> ranks;
  NativeCluster(cfg).run(fx.keys, std::span(fx.queries.data(), 500), &ranks);
  for (std::size_t i = 0; i < 500; ++i)
    ASSERT_EQ(ranks[i], fx.expected[i]);
}

}  // namespace
}  // namespace dici::core
