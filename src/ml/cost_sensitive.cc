#include "ml/cost_sensitive.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace sol::ml {

namespace {

/** Index mask of a 2^num_bits hash space. */
std::uint32_t
IndexMask(unsigned num_bits)
{
    if (num_bits == 0 || num_bits > 28) {
        throw std::invalid_argument("num_bits must be in [1, 28]");
    }
    return (1u << num_bits) - 1;
}

}  // namespace

std::uint32_t
HashFeatureName(const std::string& name)
{
    // FNV-1a 32-bit.
    std::uint32_t h = 2166136261u;
    for (const char c : name) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 16777619u;
    }
    return h;
}

FeatureVector::FeatureVector(unsigned num_bits) : mask_(IndexMask(num_bits))
{
}

void
FeatureVector::Add(const std::string& name, double value)
{
    // Index 0 is reserved for the bias term; avoid colliding with it.
    std::uint32_t idx = HashFeatureName(name) & mask_;
    if (idx == 0) {
        idx = 1;
    }
    features_.push_back(Feature{idx, value});
}

void
FeatureVector::AddHashed(std::uint32_t index, double value)
{
    features_.push_back(Feature{index & mask_, value});
}

CostSensitiveClassifier::CostSensitiveClassifier(
    const CostSensitiveConfig& config)
    : config_(config)
{
    if (config_.num_classes == 0) {
        throw std::invalid_argument("num_classes must be positive");
    }
    if (config_.learning_rate <= 0.0) {
        throw std::invalid_argument("learning_rate must be positive");
    }
}

std::size_t
CostSensitiveClassifier::Predict(const FeatureVector& x) const
{
    // Costs of a block of classes per pass over the features, so each
    // feature's row is looked up once per block rather than per class.
    constexpr std::size_t kBlock = 8;
    std::size_t best = 0;
    double best_cost = 0.0;
    for (std::size_t first = 0; first < config_.num_classes;
         first += kBlock) {
        const std::size_t n =
            std::min(kBlock, config_.num_classes - first);
        double cost[kBlock] = {};
        AddCosts(x, first, n, cost);
        for (std::size_t i = 0; i < n; ++i) {
            if (first + i == 0 || cost[i] < best_cost) {
                best_cost = cost[i];
                best = first + i;
            }
        }
    }
    return best;
}

double
CostSensitiveClassifier::PredictCost(const FeatureVector& x,
                                     std::size_t cls) const
{
    if (cls >= config_.num_classes) {
        throw std::out_of_range("class index >= num_classes");
    }
    double cost = 0.0;
    AddCosts(x, cls, 1, &cost);
    return cost;
}

void
CostSensitiveClassifier::Update(const FeatureVector& x,
                                const std::vector<double>& costs)
{
    if (costs.size() != config_.num_classes) {
        throw std::invalid_argument("costs size != num_classes");
    }
    const std::size_t classes = config_.num_classes;
    const auto& features = x.features();
    // Add the missing rows first: an insertion moves every row after it,
    // so no row is looked up until all of this call's rows exist.
    for (const auto& f : features) {
        const auto it =
            std::lower_bound(indices_.begin(), indices_.end(), f.index);
        if (it == indices_.end() || *it != f.index) {
            const auto row = (it - indices_.begin()) *
                             static_cast<std::ptrdiff_t>(classes);
            indices_.insert(it, f.index);
            weights_.insert(weights_.begin() + row, classes, 0.0);
        }
    }
    feature_rows_.clear();
    for (const auto& f : features) {
        feature_rows_.push_back(weights_.data() + RowOffset(f.index));
    }
    // Same arithmetic, in the same order, as a dense per-class table:
    // each class's cost is predicted before any of its weights move, and
    // a repeated index updates its weight once per occurrence.
    for (std::size_t c = 0; c < classes; ++c) {
        double predicted = 0.0;
        for (std::size_t i = 0; i < features.size(); ++i) {
            predicted += feature_rows_[i][c] * features[i].value;
        }
        const double error = predicted - costs[c];
        for (std::size_t i = 0; i < features.size(); ++i) {
            double& w = feature_rows_[i][c];
            w -= config_.learning_rate *
                 (error * features[i].value + config_.l2 * w);
        }
    }
    ++updates_;
}

void
CostSensitiveClassifier::Reset()
{
    indices_.clear();
    weights_.clear();
    updates_ = 0;
}

std::size_t
CostSensitiveClassifier::RowOffset(std::uint32_t index) const
{
    const auto it = std::lower_bound(indices_.begin(), indices_.end(), index);
    if (it == indices_.end() || *it != index) {
        return kNoRow;
    }
    return static_cast<std::size_t>(it - indices_.begin()) *
           config_.num_classes;
}

void
CostSensitiveClassifier::AddCosts(const FeatureVector& x, std::size_t first,
                                  std::size_t n, double* cost) const
{
    for (const auto& f : x.features()) {
        // An untouched index still adds 0.0 * value, so an inf or NaN
        // value poisons the sum exactly as it would with a dense table.
        const std::size_t row = RowOffset(f.index);
        for (std::size_t i = 0; i < n; ++i) {
            cost[i] +=
                (row == kNoRow ? 0.0 : weights_[row + first + i]) * f.value;
        }
    }
}

std::vector<double>
AsymmetricCosts(std::size_t num_classes, std::size_t true_class,
                double under_penalty, double over_penalty)
{
    assert(true_class < num_classes);
    std::vector<double> costs(num_classes);
    for (std::size_t c = 0; c < num_classes; ++c) {
        if (c < true_class) {
            costs[c] = under_penalty *
                       static_cast<double>(true_class - c);
        } else {
            costs[c] = over_penalty * static_cast<double>(c - true_class);
        }
    }
    return costs;
}

}  // namespace sol::ml
