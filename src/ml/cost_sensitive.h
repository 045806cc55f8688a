/**
 * @file
 * Online cost-sensitive multiclass classifier.
 *
 * This reproduces the model family SmartHarvest uses from VowpalWabbit
 * (csoaa: cost-sensitive one-against-all). Each class has a linear
 * regressor over hashed features that predicts the *cost* of choosing the
 * class; prediction picks the argmin-cost class; training regresses each
 * class's score toward its observed cost with online gradient descent.
 *
 * Weights live in a sparse table keyed by hashed feature index: one row of
 * num_classes weights per index that an Update has touched. Memory grows
 * with the distinct features seen, not with the FeatureVector's hash space
 * (SmartHarvest touches 10 of 65,536 indices). An untouched index weighs
 * 0.0 in every class, exactly as in a zero-filled dense table.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sol::ml {

/** Sparse feature: hashed index plus value. */
struct Feature {
    std::uint32_t index;
    double value;
};

/** Builder for hashed sparse feature vectors (VW-style namespace.name). */
class FeatureVector
{
  public:
    /** @param num_bits log2 of the hash space, in [1, 28]. */
    explicit FeatureVector(unsigned num_bits = 18);

    /** Adds a named real-valued feature. */
    void Add(const std::string& name, double value);

    /** Adds a precomputed hashed feature. */
    void AddHashed(std::uint32_t index, double value);

    /** Adds a constant bias term. */
    void AddBias() { AddHashed(0, 1.0); }

    void Clear() { features_.clear(); }

    const std::vector<Feature>& features() const { return features_; }

  private:
    std::vector<Feature> features_;
    std::uint32_t mask_;
};

/** Configuration for CostSensitiveClassifier. */
struct CostSensitiveConfig {
    std::size_t num_classes = 0;
    double learning_rate = 0.05;  ///< SGD step size.
    double l2 = 0.0;              ///< L2 regularization strength.
};

/**
 * Cost-sensitive one-against-all linear classifier.
 *
 * Rows are keyed by whatever index arrives, so any FeatureVector's hash
 * space fits. Predict and PredictCost never add a weight row and never
 * allocate. Update allocates only to add rows for new indices or to grow
 * its scratch to a longer FeatureVector than any before.
 */
class CostSensitiveClassifier
{
  public:
    explicit CostSensitiveClassifier(const CostSensitiveConfig& config);

    /** Class with the lowest predicted cost. */
    std::size_t Predict(const FeatureVector& x) const;

    /** Predicted cost of one class; throws std::out_of_range when
     *  cls >= num_classes. */
    double PredictCost(const FeatureVector& x, std::size_t cls) const;

    /**
     * Online update: regress each class's predicted cost toward the given
     * observed costs (one per class).
     */
    void Update(const FeatureVector& x, const std::vector<double>& costs);

    /** Drops every weight row and the update count. */
    void Reset();

    std::size_t num_classes() const { return config_.num_classes; }
    std::size_t updates() const { return updates_; }
    /** Distinct feature indices holding a weight row. */
    std::size_t num_rows() const { return indices_.size(); }

  private:
    static constexpr std::size_t kNoRow = static_cast<std::size_t>(-1);

    /** Offset of index's row in weights_, or kNoRow if untouched. */
    std::size_t RowOffset(std::uint32_t index) const;
    /** Adds every feature's weight * value, in feature order, to
     *  cost[i] for classes first .. first + n - 1. */
    void AddCosts(const FeatureVector& x, std::size_t first, std::size_t n,
                  double* cost) const;

    CostSensitiveConfig config_;
    /** Feature indices holding a weight row, ascending. */
    std::vector<std::uint32_t> indices_;
    /** num_classes weights per entry of indices_, in the same order. */
    std::vector<double> weights_;
    /** Update's row of each feature; kept so its storage is reused. */
    std::vector<double*> feature_rows_;
    std::size_t updates_ = 0;
};

/**
 * Standard asymmetric cost function for resource under/over-prediction:
 * under-predicting (starving the customer) costs more per unit than
 * over-predicting (missing harvest opportunity).
 */
std::vector<double> AsymmetricCosts(std::size_t num_classes,
                                    std::size_t true_class,
                                    double under_penalty,
                                    double over_penalty);

/** FNV-1a hash of a string, for feature hashing. */
std::uint32_t HashFeatureName(const std::string& name);

}  // namespace sol::ml
