/**
 * @file
 * Tests for the ML substrate: Q-learning, cost-sensitive classification
 * (including a differential test of its sparse weight table against a
 * dense reference), Thompson sampling, and feature hashing.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "ml/cost_sensitive.h"
#include "ml/qlearning.h"
#include "ml/thompson.h"
#include "sim/rng.h"

namespace sol::ml {
namespace {

// ---------------------------------------------------------------------------
// QLearner
// ---------------------------------------------------------------------------

QLearnerConfig
SmallQConfig()
{
    QLearnerConfig config;
    config.num_states = 4;
    config.num_actions = 3;
    config.learning_rate = 0.5;
    config.discount = 0.5;
    config.exploration = 0.0;
    return config;
}

TEST(QLearnerTest, RejectsBadConfig)
{
    QLearnerConfig config = SmallQConfig();
    config.num_states = 0;
    EXPECT_THROW(QLearner{config}, std::invalid_argument);

    config = SmallQConfig();
    config.learning_rate = 0.0;
    EXPECT_THROW(QLearner{config}, std::invalid_argument);

    config = SmallQConfig();
    config.discount = 1.0;
    EXPECT_THROW(QLearner{config}, std::invalid_argument);
}

TEST(QLearnerTest, InitialQValues)
{
    QLearnerConfig config = SmallQConfig();
    config.initial_q = 2.5;
    QLearner learner(config);
    EXPECT_DOUBLE_EQ(learner.Q(0, 0), 2.5);
    EXPECT_DOUBLE_EQ(learner.MaxQ(3), 2.5);
}

TEST(QLearnerTest, SingleUpdateMovesTowardTarget)
{
    QLearner learner(SmallQConfig());
    learner.Update(0, 1, 10.0, 0);
    // Q = 0 + 0.5 * (10 + 0.5*0 - 0) = 5.
    EXPECT_DOUBLE_EQ(learner.Q(0, 1), 5.0);
    EXPECT_EQ(learner.updates(), 1u);
}

TEST(QLearnerTest, BootstrapsFromNextState)
{
    QLearner learner(SmallQConfig());
    learner.Update(1, 0, 10.0, 1);  // Q(1,0) = 5.
    learner.Update(0, 2, 0.0, 1);
    // Target = 0 + 0.5 * maxQ(1) = 2.5 -> Q(0,2) = 0.5*2.5 = 1.25.
    EXPECT_DOUBLE_EQ(learner.Q(0, 2), 1.25);
}

TEST(QLearnerTest, GreedyPicksBestAction)
{
    QLearner learner(SmallQConfig());
    learner.Update(2, 0, 1.0, 2);
    learner.Update(2, 1, 5.0, 2);
    learner.Update(2, 2, 3.0, 2);
    EXPECT_EQ(learner.GreedyAction(2), 1u);
}

TEST(QLearnerTest, GreedyTieBreaksToLowestIndex)
{
    QLearner learner(SmallQConfig());
    EXPECT_EQ(learner.GreedyAction(0), 0u);
}

TEST(QLearnerTest, ConvergesToBestActionInBandit)
{
    // Stateless bandit: action 2 pays 1.0, others 0.1.
    QLearnerConfig config = SmallQConfig();
    config.num_states = 1;
    config.learning_rate = 0.2;
    config.discount = 0.0;
    QLearner learner(config);
    sim::Rng rng(5);
    for (int i = 0; i < 500; ++i) {
        const auto a = rng.NextBelow(3);
        learner.Update(0, a, a == 2 ? 1.0 : 0.1, 0);
    }
    EXPECT_EQ(learner.GreedyAction(0), 2u);
}

TEST(QLearnerTest, ExplorationRateRespected)
{
    QLearnerConfig config = SmallQConfig();
    config.exploration = 0.5;
    QLearner learner(config);
    learner.Update(0, 0, 10.0, 0);  // Make action 0 clearly greedy.
    sim::Rng rng(7);
    int explored_count = 0;
    for (int i = 0; i < 2000; ++i) {
        bool explored = false;
        learner.SelectAction(0, rng, &explored);
        explored_count += explored ? 1 : 0;
    }
    EXPECT_NEAR(explored_count / 2000.0, 0.5, 0.05);
}

TEST(QLearnerTest, ZeroExplorationIsAlwaysGreedy)
{
    QLearner learner(SmallQConfig());
    learner.Update(0, 2, 5.0, 0);
    sim::Rng rng(9);
    for (int i = 0; i < 100; ++i) {
        bool explored = true;
        EXPECT_EQ(learner.SelectAction(0, rng, &explored), 2u);
        EXPECT_FALSE(explored);
    }
}

TEST(QLearnerTest, ResetRestoresInitialValues)
{
    QLearnerConfig config = SmallQConfig();
    config.initial_q = 1.0;
    QLearner learner(config);
    learner.Update(0, 0, 100.0, 0);
    learner.Reset();
    EXPECT_DOUBLE_EQ(learner.Q(0, 0), 1.0);
    EXPECT_EQ(learner.updates(), 0u);
}

TEST(UniformBucketizerTest, MapsRangeToBuckets)
{
    UniformBucketizer buckets(0.0, 10.0, 5);
    EXPECT_EQ(buckets.Bucket(-1.0), 0u);
    EXPECT_EQ(buckets.Bucket(0.0), 0u);
    EXPECT_EQ(buckets.Bucket(3.0), 1u);
    EXPECT_EQ(buckets.Bucket(9.99), 4u);
    EXPECT_EQ(buckets.Bucket(10.0), 4u);
    EXPECT_EQ(buckets.Bucket(1e9), 4u);
}

TEST(UniformBucketizerTest, RejectsBadRange)
{
    EXPECT_THROW(UniformBucketizer(1.0, 1.0, 4), std::invalid_argument);
    EXPECT_THROW(UniformBucketizer(0.0, 1.0, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Feature hashing
// ---------------------------------------------------------------------------

TEST(FeatureVectorTest, HashingIsStable)
{
    FeatureVector a(16);
    FeatureVector b(16);
    a.Add("cpu_mean", 1.0);
    b.Add("cpu_mean", 2.0);
    ASSERT_EQ(a.features().size(), 1u);
    EXPECT_EQ(a.features()[0].index, b.features()[0].index);
}

TEST(FeatureVectorTest, IndexZeroReservedForBias)
{
    FeatureVector v(4);  // Tiny hash space forces collisions with 0.
    for (int i = 0; i < 64; ++i) {
        v.Add("f" + std::to_string(i), 1.0);
    }
    for (const auto& f : v.features()) {
        EXPECT_NE(f.index, 0u);
    }
    v.AddBias();
    EXPECT_EQ(v.features().back().index, 0u);
}

TEST(FeatureVectorTest, RejectsBadBits)
{
    EXPECT_THROW(FeatureVector(0), std::invalid_argument);
    EXPECT_THROW(FeatureVector(29), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// CostSensitiveClassifier
// ---------------------------------------------------------------------------

CostSensitiveConfig
SmallCsConfig()
{
    CostSensitiveConfig config;
    config.num_classes = 4;
    config.learning_rate = 0.1;
    return config;
}

TEST(CostSensitiveTest, RejectsBadConfig)
{
    CostSensitiveConfig config = SmallCsConfig();
    config.num_classes = 0;
    EXPECT_THROW(CostSensitiveClassifier{config}, std::invalid_argument);
}

TEST(CostSensitiveTest, PredictCostRejectsUnknownClass)
{
    CostSensitiveClassifier clf(SmallCsConfig());
    FeatureVector x(10);
    x.AddBias();
    clf.Update(x, {1.0, 2.0, 3.0, 4.0});
    EXPECT_THROW(clf.PredictCost(x, 4), std::out_of_range);
}

TEST(CostSensitiveTest, RowsGrowWithTouchedIndicesOnly)
{
    CostSensitiveClassifier clf(SmallCsConfig());
    FeatureVector x(10);
    x.AddBias();
    x.Add("load", 0.5);
    x.Add("load", 0.25);  // Same index twice: one row.
    EXPECT_EQ(clf.Predict(x), 0u);
    EXPECT_DOUBLE_EQ(clf.PredictCost(x, 2), 0.0);
    EXPECT_EQ(clf.num_rows(), 0u);  // Predictions add no rows.

    clf.Update(x, {1.0, 0.0, 1.0, 1.0});
    EXPECT_EQ(clf.num_rows(), 2u);
    FeatureVector other(10);
    other.Add("queue", 1.0);
    EXPECT_DOUBLE_EQ(clf.PredictCost(other, 1), 0.0);
    EXPECT_EQ(clf.num_rows(), 2u);

    clf.Reset();
    EXPECT_EQ(clf.num_rows(), 0u);
    EXPECT_DOUBLE_EQ(clf.PredictCost(x, 0), 0.0);
}

TEST(CostSensitiveTest, UntrainedPredictsClassZero)
{
    CostSensitiveClassifier clf(SmallCsConfig());
    FeatureVector x(10);
    x.AddBias();
    EXPECT_EQ(clf.Predict(x), 0u);
}

TEST(CostSensitiveTest, UpdateRejectsWrongCostSize)
{
    CostSensitiveClassifier clf(SmallCsConfig());
    FeatureVector x(10);
    x.AddBias();
    EXPECT_THROW(clf.Update(x, {1.0, 2.0}), std::invalid_argument);
}

TEST(CostSensitiveTest, LearnsConstantTarget)
{
    CostSensitiveClassifier clf(SmallCsConfig());
    FeatureVector x(10);
    x.AddBias();
    // Class 2 always has the lowest cost.
    const std::vector<double> costs = {3.0, 2.0, 0.0, 2.0};
    for (int i = 0; i < 200; ++i) {
        clf.Update(x, costs);
    }
    EXPECT_EQ(clf.Predict(x), 2u);
    EXPECT_NEAR(clf.PredictCost(x, 2), 0.0, 0.05);
    EXPECT_NEAR(clf.PredictCost(x, 0), 3.0, 0.1);
}

TEST(CostSensitiveTest, LearnsFeatureDependentRule)
{
    // Label = 0 when feature "load" is low, 3 when high.
    CostSensitiveClassifier clf(SmallCsConfig());
    sim::Rng rng(33);
    for (int i = 0; i < 3000; ++i) {
        const bool high = rng.NextBool(0.5);
        FeatureVector x(10);
        x.AddBias();
        x.Add("load", high ? 1.0 : 0.0);
        clf.Update(x, AsymmetricCosts(4, high ? 3 : 0, 1.0, 1.0));
    }
    FeatureVector lo(10);
    lo.AddBias();
    lo.Add("load", 0.0);
    FeatureVector hi(10);
    hi.AddBias();
    hi.Add("load", 1.0);
    EXPECT_EQ(clf.Predict(lo), 0u);
    EXPECT_EQ(clf.Predict(hi), 3u);
}

TEST(CostSensitiveTest, AsymmetryBiasesUpward)
{
    // With heavy under-prediction penalty and a noisy target of 1 or 2,
    // the classifier should prefer 2 (never under-predict).
    CostSensitiveConfig config = SmallCsConfig();
    CostSensitiveClassifier clf(config);
    FeatureVector x(10);
    x.AddBias();
    sim::Rng rng(35);
    for (int i = 0; i < 2000; ++i) {
        const std::size_t label = rng.NextBool(0.5) ? 1 : 2;
        clf.Update(x, AsymmetricCosts(4, label, 10.0, 1.0));
    }
    EXPECT_EQ(clf.Predict(x), 2u);
}

TEST(CostSensitiveTest, ResetForgets)
{
    CostSensitiveClassifier clf(SmallCsConfig());
    FeatureVector x(10);
    x.AddBias();
    for (int i = 0; i < 100; ++i) {
        clf.Update(x, {5.0, 0.0, 5.0, 5.0});
    }
    EXPECT_EQ(clf.Predict(x), 1u);
    clf.Reset();
    EXPECT_DOUBLE_EQ(clf.PredictCost(x, 1), 0.0);
    EXPECT_EQ(clf.updates(), 0u);
}

// ---------------------------------------------------------------------------
// Differential test: sparse weight rows against the dense table they replaced
// ---------------------------------------------------------------------------

/**
 * The classifier as it was before its weights became sparse: one dense,
 * zero-filled row of 2^num_bits weights per class, with num_bits its own
 * argument. Kept verbatim as the reference the sparse table must match
 * bit for bit.
 */
class DenseReference
{
  public:
    DenseReference(const CostSensitiveConfig& config, unsigned num_bits)
        : config_(config),
          table_size_(std::size_t{1} << num_bits),
          weights_(config.num_classes * table_size_, 0.0)
    {
    }

    std::size_t
    Predict(const FeatureVector& x) const
    {
        std::size_t best = 0;
        double best_cost = Dot(x, 0);
        for (std::size_t c = 1; c < config_.num_classes; ++c) {
            const double cost = Dot(x, c);
            if (cost < best_cost) {
                best_cost = cost;
                best = c;
            }
        }
        return best;
    }

    double PredictCost(const FeatureVector& x, std::size_t cls) const
    {
        return Dot(x, cls);
    }

    void
    Update(const FeatureVector& x, const std::vector<double>& costs)
    {
        for (std::size_t c = 0; c < config_.num_classes; ++c) {
            const double predicted = Dot(x, c);
            const double error = predicted - costs[c];
            double* row = &weights_[c * table_size_];
            for (const auto& f : x.features()) {
                double& w = row[f.index];
                w -= config_.learning_rate *
                     (error * f.value + config_.l2 * w);
            }
        }
    }

    void Reset() { std::fill(weights_.begin(), weights_.end(), 0.0); }

  private:
    double
    Dot(const FeatureVector& x, std::size_t cls) const
    {
        const double* row = &weights_[cls * table_size_];
        double total = 0.0;
        for (const auto& f : x.features()) {
            total += row[f.index] * f.value;
        }
        return total;
    }

    CostSensitiveConfig config_;
    std::size_t table_size_;
    std::vector<double> weights_;
};

/**
 * A cost's bits, with every NaN mapped to one pattern. Which NaN a sum
 * of two NaNs returns depends on the operand order the compiler picks
 * (an ASan build and a Release build pick differently), not on the
 * classifier; every other value, signed zeros and infinities included,
 * is compared bit for bit.
 */
std::uint64_t
Bits(double value)
{
    return std::bit_cast<std::uint64_t>(
        std::isnan(value) ? std::numeric_limits<double>::quiet_NaN()
                          : value);
}

class CostSensitiveDifferentialTest
    : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(CostSensitiveDifferentialTest, SparseRowsMatchDenseTableBitForBit)
{
    // 16 indices, so collisions and repeated indices are common.
    constexpr unsigned kNumBits = 4;
    CostSensitiveConfig config;
    config.num_classes = GetParam();
    config.learning_rate = 0.05;
    config.l2 = 0.01;
    CostSensitiveClassifier sparse(config);
    DenseReference dense(config, kNumBits);

    constexpr double kInf = std::numeric_limits<double>::infinity();
    const double specials[] = {kInf, -kInf,
                               std::numeric_limits<double>::quiet_NaN()};
    sim::Rng rng(2024);
    // A feature value: zero, negative or positive. Predictions may also
    // carry +-inf and NaN; updates never do, or every weight turns NaN.
    auto value = [&rng, &specials](bool special_ok) {
        if (special_ok && rng.NextBool(0.08)) {
            return specials[rng.NextBelow(3)];
        }
        if (rng.NextBool(0.15)) {
            return 0.0;
        }
        return 4.0 * rng.NextDouble() - 2.0;
    };
    auto features = [&rng, &value](bool special_ok) {
        FeatureVector x(kNumBits);
        if (rng.NextBool(0.7)) {
            x.AddBias();
        }
        const std::size_t n = 1 + rng.NextBelow(6);
        for (std::size_t i = 0; i < n; ++i) {
            // Draw the name or index before the value, in statement order,
            // so every compiler sees the same stream.
            if (rng.NextBool(0.5)) {
                std::string name = "f";
                name += std::to_string(rng.NextBelow(40));
                x.Add(name, value(special_ok));
            } else {
                const auto index =
                    static_cast<std::uint32_t>(rng.NextBelow(64));
                x.AddHashed(index, value(special_ok));
            }
        }
        return x;
    };

    std::set<std::uint32_t> touched;
    std::size_t predictions = 0;
    std::size_t updates = 0;
    std::size_t nan_costs = 0;
    std::size_t finite_costs = 0;
    std::size_t untouched_specials = 0;
    for (int step = 0; step < 12'000; ++step) {
        // Frequent resets restart from an empty table, so predictions
        // often meet indices no update has touched yet.
        if (step % 500 == 499) {
            sparse.Reset();
            dense.Reset();
            touched.clear();
        }
        if (rng.NextBool(0.5)) {
            const FeatureVector x = features(false);
            std::vector<double> costs(config.num_classes);
            for (double& cost : costs) {
                cost = rng.NextBool(0.2) ? 0.0 : 5.0 * rng.NextDouble() - 1.0;
            }
            sparse.Update(x, costs);
            dense.Update(x, costs);
            for (const auto& f : x.features()) {
                touched.insert(f.index);
            }
            ++updates;
            ASSERT_EQ(sparse.num_rows(), touched.size()) << "step " << step;
            continue;
        }
        const FeatureVector x = features(true);
        for (const auto& f : x.features()) {
            if (!std::isfinite(f.value) && touched.count(f.index) == 0) {
                ++untouched_specials;
            }
        }
        ASSERT_EQ(sparse.Predict(x), dense.Predict(x)) << "step " << step;
        for (std::size_t c = 0; c < config.num_classes; ++c) {
            const double cost = sparse.PredictCost(x, c);
            ASSERT_EQ(Bits(cost), Bits(dense.PredictCost(x, c)))
                << "step " << step << " class " << c;
            nan_costs += std::isnan(cost) ? 1 : 0;
            finite_costs += std::isfinite(cost) && cost != 0.0 ? 1 : 0;
        }
        ++predictions;
        ASSERT_EQ(sparse.num_rows(), touched.size()) << "step " << step;
    }
    // The stream really covered both call kinds and the special values,
    // including on indices no update had touched yet, and the weights
    // stayed finite, so most costs compared were ordinary numbers.
    EXPECT_GT(predictions, 5'000u);
    EXPECT_GT(updates, 5'000u);
    EXPECT_GT(finite_costs, predictions * config.num_classes / 2);
    EXPECT_GT(nan_costs, 0u);
    EXPECT_GT(untouched_specials, 10u);
}

// Predict sums 8 classes per pass over the features: 5 classes fit one
// pass, 11 need two.
INSTANTIATE_TEST_SUITE_P(ClassCounts, CostSensitiveDifferentialTest,
                         ::testing::Values(std::size_t{5}, std::size_t{11}));

TEST(AsymmetricCostsTest, ShapeIsVShaped)
{
    const auto costs = AsymmetricCosts(5, 2, 4.0, 1.0);
    ASSERT_EQ(costs.size(), 5u);
    EXPECT_DOUBLE_EQ(costs[0], 8.0);  // Two units under at 4 each.
    EXPECT_DOUBLE_EQ(costs[1], 4.0);
    EXPECT_DOUBLE_EQ(costs[2], 0.0);
    EXPECT_DOUBLE_EQ(costs[3], 1.0);
    EXPECT_DOUBLE_EQ(costs[4], 2.0);
}

// ---------------------------------------------------------------------------
// ThompsonSampler
// ---------------------------------------------------------------------------

TEST(ThompsonTest, RejectsBadConfig)
{
    EXPECT_THROW(ThompsonSampler(0), std::invalid_argument);
    EXPECT_THROW(ThompsonSampler(3, 0.0, 1.0), std::invalid_argument);
}

TEST(ThompsonTest, PosteriorMeanMovesWithEvidence)
{
    ThompsonSampler ts(2);
    EXPECT_DOUBLE_EQ(ts.PosteriorMean(0), 0.5);
    for (int i = 0; i < 8; ++i) {
        ts.Observe(0, true);
    }
    ts.Observe(0, false);
    // Beta(9, 2) mean = 9/11.
    EXPECT_NEAR(ts.PosteriorMean(0), 9.0 / 11.0, 1e-9);
    EXPECT_DOUBLE_EQ(ts.PosteriorMean(1), 0.5);
}

TEST(ThompsonTest, ConvergesToBestArm)
{
    ThompsonSampler ts(3);
    sim::Rng rng(37);
    const double arm_probs[] = {0.2, 0.8, 0.4};
    std::vector<int> picks(3, 0);
    for (int i = 0; i < 2000; ++i) {
        const auto arm = ts.SelectArm(rng);
        ++picks[arm];
        ts.Observe(arm, rng.NextBool(arm_probs[arm]));
    }
    // The best arm must dominate the later choices.
    EXPECT_GT(picks[1], picks[0] * 2);
    EXPECT_GT(picks[1], picks[2] * 2);
}

TEST(ThompsonTest, DecayForgetsOldEvidence)
{
    ThompsonSampler ts(1);
    for (int i = 0; i < 100; ++i) {
        ts.Observe(0, true);
    }
    EXPECT_GT(ts.PosteriorMean(0), 0.95);
    ts.Decay(0.01);
    EXPECT_NEAR(ts.PosteriorMean(0), 0.5, 0.2);
}

TEST(ThompsonTest, DecayRejectsBadFactor)
{
    ThompsonSampler ts(2);
    EXPECT_THROW(ts.Decay(0.0), std::invalid_argument);
    EXPECT_THROW(ts.Decay(1.5), std::invalid_argument);
}

TEST(ThompsonTest, ResetRestoresPrior)
{
    ThompsonSampler ts(2, 2.0, 3.0);
    ts.Observe(0, true);
    ts.Reset();
    EXPECT_DOUBLE_EQ(ts.alpha(0), 2.0);
    EXPECT_DOUBLE_EQ(ts.beta(0), 3.0);
}

// Property sweep: Thompson sampling finds the best arm across reward gaps.
class ThompsonGapTest : public ::testing::TestWithParam<double>
{
};

TEST_P(ThompsonGapTest, BestArmWinsEventually)
{
    const double gap = GetParam();
    ThompsonSampler ts(2);
    sim::Rng rng(41);
    const double p_best = 0.6 + gap / 2.0;
    const double p_other = 0.6 - gap / 2.0;
    for (int i = 0; i < 3000; ++i) {
        const auto arm = ts.SelectArm(rng);
        ts.Observe(arm, rng.NextBool(arm == 0 ? p_best : p_other));
    }
    EXPECT_GT(ts.PosteriorMean(0), ts.PosteriorMean(1));
}

INSTANTIATE_TEST_SUITE_P(Gaps, ThompsonGapTest,
                         ::testing::Values(0.2, 0.4, 0.6));

}  // namespace
}  // namespace sol::ml
