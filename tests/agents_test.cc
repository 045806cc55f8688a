/**
 * @file
 * Tests for the three SOL agents: per-agent data validation, default
 * predictions, model assessment, actuation, mitigation, and cleanup —
 * exercised directly against the node substrate (no runtime), so each
 * safeguard's logic is verified in isolation.
 */
#include <gtest/gtest.h>

#include <memory>

#include "agents/smartharvest/smartharvest.h"
#include "agents/smartmemory/smartmemory.h"
#include "agents/smartoverclock/smartoverclock.h"
#include "sim/event_queue.h"
#include "workloads/best_effort.h"
#include "workloads/synthetic_batch.h"

namespace sol::agents {
namespace {

using sim::EventQueue;
using sim::Millis;
using sim::Seconds;
using sim::TimePoint;

// ---------------------------------------------------------------------------
// SmartOverclock
// ---------------------------------------------------------------------------

class SmartOverclockTest : public ::testing::Test
{
  protected:
    SmartOverclockTest()
        : node(node::NodeConfig{8, 1.5, {1.5, 1.9, 2.3}, {}}),
          workload(std::make_shared<workloads::BestEffort>()),
          vm(node.AddVm(node::VmConfig{"vm", 8}, workload)),
          model(node, vm, queue),
          actuator(node, vm, queue)
    {
    }

    /** Advances the node and collects one counter sample. */
    OverclockSample
    Sample(sim::Duration dt = Millis(100))
    {
        node.Advance(queue.Now(), dt);
        queue.RunFor(dt);
        return model.CollectData();
    }

    EventQueue queue;
    node::Node node;
    std::shared_ptr<workloads::BestEffort> workload;
    node::VmId vm;
    OverclockModel model;
    OverclockActuator actuator;
};

TEST_F(SmartOverclockTest, ScheduleMatchesPaper)
{
    const core::Schedule schedule = SmartOverclockSchedule();
    EXPECT_EQ(schedule.data_per_epoch, 10);
    EXPECT_EQ(schedule.data_collect_interval, Millis(100));
    EXPECT_EQ(schedule.max_actuation_delay, Seconds(5));
    EXPECT_TRUE(schedule.IsValid());
}

TEST_F(SmartOverclockTest, CollectComputesIpsFromCounters)
{
    Sample();  // Prime the snapshot.
    const OverclockSample sample = Sample();
    // BestEffort: util 1.0, ipc 1.0, stall 0.1 at 1.5 GHz on 8 cores.
    EXPECT_NEAR(sample.ips, 8 * 1.5e9 * 0.9, 1e7);
    EXPECT_NEAR(sample.alpha, 0.9, 1e-6);
    EXPECT_DOUBLE_EQ(sample.freq_ghz, 1.5);
}

TEST_F(SmartOverclockTest, ValidationRangeChecks)
{
    OverclockSample ok{1e9, 0.5, 1.5};
    EXPECT_TRUE(model.ValidateData(ok));

    OverclockSample bad_ips{1e17, 0.5, 1.5};
    EXPECT_FALSE(model.ValidateData(bad_ips));

    OverclockSample negative_ips{-1.0, 0.5, 1.5};
    EXPECT_FALSE(model.ValidateData(negative_ips));

    OverclockSample bad_alpha{1e9, 1.5, 1.5};
    EXPECT_FALSE(model.ValidateData(bad_alpha));

    OverclockSample bad_freq{1e9, 0.5, -2.0};
    EXPECT_FALSE(model.ValidateData(bad_freq));
}

TEST_F(SmartOverclockTest, PredictionsCarryTtl)
{
    const auto pred = model.ModelPredict();
    EXPECT_GT(pred.expiry, queue.Now());
    EXPECT_FALSE(pred.is_default);
    // Prediction must be one of the allowed frequencies.
    bool allowed = false;
    for (const double f : node.AllowedFrequencies()) {
        allowed |= std::abs(pred.value - f) < 1e-9;
    }
    EXPECT_TRUE(allowed);
}

TEST_F(SmartOverclockTest, DefaultPredictionIsNominalWhenHealthy)
{
    const auto pred = model.DefaultPredict();
    EXPECT_TRUE(pred.is_default);
    EXPECT_DOUBLE_EQ(pred.value, 1.5);
}

TEST_F(SmartOverclockTest, BrokenModelAlwaysPicksMax)
{
    model.BreakModel(true);
    for (int i = 0; i < 5; ++i) {
        EXPECT_DOUBLE_EQ(model.ModelPredict().value, 2.3);
    }
}

TEST_F(SmartOverclockTest, AssessmentFailsOnWastedOverclocking)
{
    // Feed epochs where the VM is overclocked but IPS does not justify
    // it (low activity at 2.3 GHz).
    node.SetVmFrequency(vm, 2.3);
    for (int epoch = 0; epoch < 12; ++epoch) {
        for (int i = 0; i < 10; ++i) {
            OverclockSample sample{0.05e9, 0.02, 2.3};
            model.CommitData(queue.Now(), sample);
        }
        model.UpdateModel();
        model.AssessModel();
    }
    EXPECT_FALSE(model.AssessModel());
}

TEST_F(SmartOverclockTest, AssessmentHealthyOnBeneficialOverclocking)
{
    node.SetVmFrequency(vm, 2.3);
    for (int epoch = 0; epoch < 12; ++epoch) {
        for (int i = 0; i < 10; ++i) {
            // High IPS fully explained by the higher frequency.
            OverclockSample sample{8 * 2.3e9 * 1.8, 0.9, 2.3};
            model.CommitData(queue.Now(), sample);
        }
        model.UpdateModel();
        model.AssessModel();
    }
    EXPECT_TRUE(model.AssessModel());
}

TEST_F(SmartOverclockTest, ActuatorAppliesPrediction)
{
    actuator.TakeAction(core::MakePrediction(2.3, queue.Now(), Seconds(1)));
    EXPECT_DOUBLE_EQ(node.VmFrequency(vm), 2.3);
    actuator.TakeAction(std::nullopt);
    EXPECT_DOUBLE_EQ(node.VmFrequency(vm), 1.5);
}

TEST_F(SmartOverclockTest, MitigateAndCleanUpRestoreNominal)
{
    node.SetVmFrequency(vm, 2.3);
    actuator.Mitigate();
    EXPECT_DOUBLE_EQ(node.VmFrequency(vm), 1.5);

    node.SetVmFrequency(vm, 1.9);
    actuator.CleanUp();
    EXPECT_DOUBLE_EQ(node.VmFrequency(vm), 1.5);
    actuator.CleanUp();  // Idempotent.
    EXPECT_DOUBLE_EQ(node.VmFrequency(vm), 1.5);
}

TEST_F(SmartOverclockTest, SafeguardEntersOnSustainedLowAlpha)
{
    SmartOverclockConfig config;
    config.safeguard_window = Seconds(10);
    OverclockActuator guard(node, vm, queue, config);
    // BestEffort has alpha 0.9: healthy.
    for (int i = 0; i < 15; ++i) {
        node.Advance(queue.Now(), Seconds(1));
        queue.RunFor(Seconds(1));
        EXPECT_TRUE(guard.AssessPerformance());
    }
    EXPECT_FALSE(guard.safeguard_active());
}

// ---------------------------------------------------------------------------
// SmartHarvest
// ---------------------------------------------------------------------------

class SmartHarvestTest : public ::testing::Test
{
  protected:
    SmartHarvestTest()
        : node(node::NodeConfig{16, 1.5, {1.5, 1.9, 2.3}, {}}),
          primary_wl(std::make_shared<workloads::BestEffort>()),
          elastic_wl(std::make_shared<workloads::BestEffort>()),
          primary(node.AddVm(node::VmConfig{"primary", 6}, primary_wl)),
          elastic(node.AddVm(node::VmConfig{"elastic", 6}, elastic_wl)),
          model(node, primary, queue),
          actuator(node, primary, elastic, queue)
    {
        node.GrantCores(elastic, 0);
    }

    EventQueue queue;
    node::Node node;
    std::shared_ptr<workloads::BestEffort> primary_wl;
    std::shared_ptr<workloads::BestEffort> elastic_wl;
    node::VmId primary;
    node::VmId elastic;
    HarvestModel model;
    HarvestActuator actuator;
};

TEST_F(SmartHarvestTest, ScheduleMatchesPaper)
{
    const core::Schedule schedule = SmartHarvestSchedule();
    EXPECT_EQ(schedule.data_per_epoch, 500);
    EXPECT_EQ(schedule.data_collect_interval, sim::Micros(50));
    EXPECT_EQ(schedule.max_actuation_delay, Millis(100));
    EXPECT_TRUE(schedule.IsValid());
}

TEST_F(SmartHarvestTest, RejectsEmptyAssessmentWindow)
{
    SmartHarvestConfig config;
    config.assess_window = 0;
    EXPECT_THROW(HarvestModel(node, primary, queue, config),
                 std::invalid_argument);
}

TEST_F(SmartHarvestTest, ValidationDiscardsCensoredSamples)
{
    // Usage below the grant: valid.
    EXPECT_TRUE(model.ValidateData(HarvestSample{3.0, 6, 6}));
    // Usage at the grant: censored, discard.
    EXPECT_FALSE(model.ValidateData(HarvestSample{6.0, 6, 6}));
    EXPECT_FALSE(model.ValidateData(HarvestSample{4.0, 4, 6}));
    // Out-of-range usage: discard.
    EXPECT_FALSE(model.ValidateData(HarvestSample{-1.0, 6, 6}));
    EXPECT_FALSE(model.ValidateData(HarvestSample{9.0, 6, 6}));
}

TEST_F(SmartHarvestTest, DefaultPredictionReturnsAllCores)
{
    const auto pred = model.DefaultPredict();
    EXPECT_TRUE(pred.is_default);
    EXPECT_EQ(pred.value, 6);
}

TEST_F(SmartHarvestTest, BrokenModelUnderpredicts)
{
    model.BreakModel(true);
    // Give it one epoch of data so features exist.
    for (int i = 0; i < 100; ++i) {
        model.CommitData(queue.Now(), HarvestSample{4.0, 6, 6});
    }
    model.UpdateModel();
    EXPECT_EQ(model.ModelPredict().value, 1);
}

TEST_F(SmartHarvestTest, LearnsStableDemand)
{
    // Constant demand of ~3 cores: after training, the model should
    // predict >= 3 (asymmetric costs bias upward).
    for (int epoch = 0; epoch < 200; ++epoch) {
        for (int i = 0; i < 50; ++i) {
            model.CommitData(queue.Now(), HarvestSample{3.0, 6, 6});
        }
        model.UpdateModel();
    }
    const int predicted = model.ModelPredict().value;
    EXPECT_GE(predicted, 3);
    EXPECT_LE(predicted, 4);
}

TEST_F(SmartHarvestTest, AssessmentTriggersOnOutOfCores)
{
    // Simulate harvested epochs in which the primary keeps hitting its
    // reduced grant (out of idle cores).
    node.GrantCores(primary, 2);
    for (int epoch = 0; epoch < 50; ++epoch) {
        for (int i = 0; i < 10; ++i) {
            model.CollectData();  // BestEffort demands everything.
        }
        node.Advance(queue.Now(), Millis(25));
        queue.RunFor(Millis(25));
        model.UpdateModel();
    }
    EXPECT_GT(model.OutOfCoresFraction(), 0.5);
    EXPECT_FALSE(model.AssessModel());
}

TEST_F(SmartHarvestTest, ActuatorSplitsCoresBetweenVms)
{
    actuator.TakeAction(core::MakePrediction(2, queue.Now(), Millis(60)));
    EXPECT_EQ(node.GrantedCores(primary), 2);
    EXPECT_EQ(node.GrantedCores(elastic), 4);

    actuator.TakeAction(std::nullopt);
    EXPECT_EQ(node.GrantedCores(primary), 6);
    EXPECT_EQ(node.GrantedCores(elastic), 0);
}

TEST_F(SmartHarvestTest, ActuatorClampsPrediction)
{
    actuator.TakeAction(core::MakePrediction(99, queue.Now(), Millis(60)));
    EXPECT_EQ(node.GrantedCores(primary), 6);
    EXPECT_EQ(node.GrantedCores(elastic), 0);
}

TEST_F(SmartHarvestTest, MitigateReturnsEverything)
{
    node.GrantCores(primary, 1);
    node.GrantCores(elastic, 5);
    actuator.Mitigate();
    EXPECT_EQ(node.GrantedCores(primary), 6);
    EXPECT_EQ(node.GrantedCores(elastic), 0);
}

TEST_F(SmartHarvestTest, CleanUpIdempotent)
{
    node.GrantCores(primary, 3);
    actuator.CleanUp();
    actuator.CleanUp();
    EXPECT_EQ(node.GrantedCores(primary), 6);
    EXPECT_EQ(node.GrantedCores(elastic), 0);
}

// ---------------------------------------------------------------------------
// SmartMemory
// ---------------------------------------------------------------------------

class SmartMemoryTest : public ::testing::Test
{
  protected:
    SmartMemoryTest()
        : memory(32, 32), model(memory, queue), actuator(memory, queue)
    {
    }

    /** Runs one full epoch of collect/commit rounds with accesses. */
    void
    RunEpoch(const std::vector<node::BatchId>& hot, int rounds = 128)
    {
        for (int r = 0; r < rounds; ++r) {
            for (const auto b : hot) {
                memory.RecordAccess(b, queue.Now(), 10);
            }
            const ScanRound round = model.CollectData();
            if (model.ValidateData(round)) {
                model.CommitData(queue.Now(), round);
            }
            queue.RunFor(Millis(300));
        }
        model.UpdateModel();
    }

    EventQueue queue;
    node::TieredMemory memory;
    MemoryModel model;
    MemoryActuator actuator;
};

TEST_F(SmartMemoryTest, ScheduleMatchesPaper)
{
    const core::Schedule schedule = SmartMemorySchedule();
    EXPECT_EQ(schedule.data_per_epoch, 128);
    EXPECT_EQ(schedule.data_collect_interval, Millis(300));
    // 128 * 300 ms = 38.4 s epochs.
    EXPECT_GE(schedule.max_epoch_time, Millis(38400));
    EXPECT_TRUE(schedule.IsValid());
}

TEST_F(SmartMemoryTest, ValidationFailsOnScanErrors)
{
    EXPECT_TRUE(model.ValidateData(ScanRound{10, 0}));
    EXPECT_FALSE(model.ValidateData(ScanRound{10, 1}));
}

TEST_F(SmartMemoryTest, ScanErrorsPropagateFromDriver)
{
    memory.InjectScanErrors(1000);
    const ScanRound round = model.CollectData();
    EXPECT_GT(round.errors, 0);
}

TEST_F(SmartMemoryTest, HotBatchesClassifiedIntoFastTier)
{
    const std::vector<node::BatchId> hot = {3, 7, 11};
    // Many epochs: Thompson sampling needs repeated rounds to drive the
    // hot batches to fast scan arms where their intensity is resolved.
    for (int epoch = 0; epoch < 15; ++epoch) {
        RunEpoch(hot);
    }
    const auto pred = model.ModelPredict();
    // Every genuinely hot batch must be in the fast list.
    for (const auto b : hot) {
        EXPECT_NE(std::find(pred.value.fast.begin(), pred.value.fast.end(),
                            b),
                  pred.value.fast.end())
            << "batch " << b;
    }
    // Hot batches have much higher estimated intensity.
    EXPECT_GT(model.EstimatedIntensity(3), model.EstimatedIntensity(0));
}

TEST_F(SmartMemoryTest, DefaultPredictionKeepsMostBatchesLocal)
{
    RunEpoch({1, 2});
    const auto pred = model.DefaultPredict();
    EXPECT_TRUE(pred.is_default);
    // 95% of 32 batches -> 30 local, 2 demotion candidates.
    EXPECT_EQ(pred.value.fast.size(), 30u);
    EXPECT_EQ(pred.value.slow.size(), 2u);
}

TEST_F(SmartMemoryTest, ColdDetectionAfterThreshold)
{
    RunEpoch({1});
    EXPECT_FALSE(model.IsCold(1));
    // Advance past the cold threshold with no accesses at all.
    for (int epoch = 0; epoch < 6; ++epoch) {
        RunEpoch({});
    }
    EXPECT_TRUE(model.IsCold(5));
}

TEST_F(SmartMemoryTest, ActuatorAppliesPlan)
{
    MemoryPlan plan;
    plan.slow = {0, 1, 2};
    plan.fast = {};
    actuator.TakeAction(
        core::MakePrediction(plan, queue.Now(), Seconds(60)));
    EXPECT_EQ(memory.TierOf(0), node::Tier::kSlow);
    EXPECT_EQ(memory.TierOf(1), node::Tier::kSlow);
    EXPECT_EQ(memory.TierOf(2), node::Tier::kSlow);
    EXPECT_EQ(memory.fast_tier_used(), 29u);
}

TEST_F(SmartMemoryTest, ActuatorNoActionOnEmptyPrediction)
{
    actuator.TakeAction(std::nullopt);
    EXPECT_EQ(memory.migrations(), 0u);
}

TEST_F(SmartMemoryTest, SafeguardTriggersAboveSlo)
{
    // Demote a batch and hammer it remotely: remote fraction 100%.
    memory.Migrate(5, node::Tier::kSlow);
    actuator.AssessPerformance();  // Baseline.
    memory.RecordAccess(5, queue.Now(), 100);
    EXPECT_FALSE(actuator.AssessPerformance());
    EXPECT_GT(actuator.last_remote_fraction(), 0.2);
}

TEST_F(SmartMemoryTest, SafeguardHealthyWhenLocal)
{
    memory.RecordAccess(1, queue.Now(), 100);
    EXPECT_TRUE(actuator.AssessPerformance());
}

TEST_F(SmartMemoryTest, MitigateBringsHottestBack)
{
    memory.Migrate(5, node::Tier::kSlow);
    memory.Migrate(6, node::Tier::kSlow);
    memory.RecordAccess(5, Seconds(10));
    actuator.Mitigate();
    EXPECT_EQ(memory.TierOf(5), node::Tier::kFast);
    EXPECT_EQ(memory.TierOf(6), node::Tier::kFast);
}

TEST_F(SmartMemoryTest, MitigateRespectsCapacity)
{
    node::TieredMemory small(8, 4);
    MemoryActuator guard(small, queue);
    // All four slow batches can't fit into the remaining... fill fast.
    guard.Mitigate();
    EXPECT_EQ(small.fast_tier_used(), 4u);
}

TEST_F(SmartMemoryTest, CleanUpRestoresEverythingThatFits)
{
    memory.Migrate(3, node::Tier::kSlow);
    memory.Migrate(9, node::Tier::kSlow);
    actuator.CleanUp();
    EXPECT_EQ(memory.fast_tier_used(), 32u);
    actuator.CleanUp();  // Idempotent.
    EXPECT_EQ(memory.fast_tier_used(), 32u);
}

TEST_F(SmartMemoryTest, FixedArmDisablesLearning)
{
    SmartMemoryConfig config;
    config.fixed_arm = 0;
    MemoryModel fixed(memory, queue, config);
    // With a fixed arm the assessment never fails (no probes).
    EXPECT_TRUE(fixed.AssessModel());
}

// Parameterized sweep: the hot/warm split respects the coverage target
// across different hot-set sizes.
class HotCoverageTest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(HotCoverageTest, HotSetSizeTracksTrueHotSet)
{
    const std::size_t hot_count = GetParam();
    EventQueue queue;
    node::TieredMemory memory(32, 32);
    MemoryModel model(memory, queue);
    std::vector<node::BatchId> hot;
    for (std::size_t i = 0; i < hot_count; ++i) {
        hot.push_back(i);
    }
    // Many epochs so the bandit settles hot batches on fast arms.
    for (int epoch = 0; epoch < 15; ++epoch) {
        for (int r = 0; r < 128; ++r) {
            for (const auto b : hot) {
                memory.RecordAccess(b, queue.Now(), 5);
            }
            const ScanRound round = model.CollectData();
            if (model.ValidateData(round)) {
                model.CommitData(queue.Now(), round);
            }
            queue.RunFor(Millis(300));
        }
        model.UpdateModel();
    }
    const auto pred = model.ModelPredict();
    // With near-equal per-batch intensity, the 80%-coverage rule keeps
    // roughly 0.8 * hot_count batches hot and never (much) more than
    // the true hot set.
    EXPECT_GE(pred.value.fast.size(),
              std::max<std::size_t>(1, (hot_count * 3) / 5));
    EXPECT_LE(pred.value.fast.size(), hot_count + 3);
}

INSTANTIATE_TEST_SUITE_P(HotSetSizes, HotCoverageTest,
                         ::testing::Values(2, 4, 8, 16));

}  // namespace
}  // namespace sol::agents
