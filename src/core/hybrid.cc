#include "core/hybrid.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"
#include "data/encoding.h"
#include "nn/complex_linear.h"

namespace metaai::core {
namespace {

// Head hidden width relative to the over-the-air hidden layer.
std::size_t HeadHidden(std::size_t ota_hidden) { return 2 * ota_hidden; }

std::vector<double> NormalizeByMean(const std::vector<double>& m) {
  double mu = 0.0;
  for (const double v : m) mu += v;
  mu /= static_cast<double>(m.size());
  std::vector<double> normalized(m.size());
  const double inv = mu > 1e-300 ? 1.0 / mu : 0.0;
  for (std::size_t i = 0; i < m.size(); ++i) normalized[i] = m[i] * inv;
  return normalized;
}

}  // namespace

HybridModel::HybridModel(std::size_t input_dim, std::size_t hidden_units,
                         std::size_t num_classes, rf::Modulation modulation)
    : ota_layer_{.network = nn::ComplexLinearModel(input_dim, hidden_units),
                 .modulation = modulation} {
  Check(hidden_units > 0 && num_classes > 0, "hybrid model needs dimensions");
  const std::size_t h2 = HeadHidden(hidden_units);
  head_.v1 = RealMatrix(h2, hidden_units);
  head_.b1.assign(h2, 0.0);
  head_.v2 = RealMatrix(num_classes, h2);
  head_.b2.assign(num_classes, 0.0);
}

void HybridModel::Initialize(Rng& rng) {
  ota_layer_.network.Initialize(rng);
  const double s1 = std::sqrt(2.0 / static_cast<double>(hidden_units()));
  for (std::size_t r = 0; r < head_.v1.rows(); ++r) {
    for (std::size_t c = 0; c < head_.v1.cols(); ++c) {
      head_.v1(r, c) = rng.Normal(0.0, s1);
    }
  }
  const double s2 = std::sqrt(2.0 / static_cast<double>(head_.v1.rows()));
  for (std::size_t r = 0; r < head_.v2.rows(); ++r) {
    for (std::size_t c = 0; c < head_.v2.cols(); ++c) {
      head_.v2(r, c) = rng.Normal(0.0, s2);
    }
  }
  std::fill(head_.b1.begin(), head_.b1.end(), 0.0);
  std::fill(head_.b2.begin(), head_.b2.end(), 0.0);
}

std::vector<double> HybridModel::HeadLogits(
    const std::vector<double>& magnitudes) const {
  const auto normalized = NormalizeByMean(magnitudes);
  std::vector<double> h1(head_.v1.rows(), 0.0);
  for (std::size_t r = 0; r < head_.v1.rows(); ++r) {
    double acc = head_.b1[r];
    const double* row = head_.v1.row(r);
    for (std::size_t c = 0; c < normalized.size(); ++c) {
      acc += row[c] * normalized[c];
    }
    h1[r] = std::max(acc, 0.0);
  }
  std::vector<double> logits(head_.v2.rows(), 0.0);
  for (std::size_t r = 0; r < head_.v2.rows(); ++r) {
    double acc = head_.b2[r];
    const double* row = head_.v2.row(r);
    for (std::size_t c = 0; c < h1.size(); ++c) acc += row[c] * h1[c];
    logits[r] = acc;
  }
  return logits;
}

int HybridModel::PredictFromHiddenScores(
    const std::vector<double>& hidden_scores) const {
  Check(hidden_scores.size() == hidden_units(),
        "hidden score dimension mismatch");
  const auto logits = HeadLogits(hidden_scores);
  return static_cast<int>(std::distance(
      logits.begin(), std::max_element(logits.begin(), logits.end())));
}

int HybridModel::Predict(const std::vector<double>& pixels) const {
  const auto symbols = data::EncodeSample(pixels, modulation());
  const auto scores = ota_layer_.network.ClassScores(symbols);
  return PredictFromHiddenScores(scores);
}

double HybridModel::Evaluate(const nn::RealDataset& test) const {
  test.Validate();
  Check(test.dim == input_dim(), "dataset dimension mismatch");
  if (test.size() == 0) return 0.0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    correct += (Predict(test.features[i]) == test.labels[i]);
  }
  return static_cast<double>(correct) / static_cast<double>(test.size());
}

double HybridModel::Train(const nn::RealDataset& train,
                          const HybridTrainOptions& options, Rng& rng) {
  train.Validate();
  Check(train.dim == input_dim(), "dataset dimension mismatch");
  Check(train.num_classes == num_classes(), "class count mismatch");
  Check(options.epochs > 0 && options.batch_size > 0, "bad options");

  const nn::ComplexDataset encoded =
      data::EncodeDataset(train, modulation());
  const std::size_t n = encoded.size();
  const std::size_t H = hidden_units();
  const std::size_t H2 = head_.v1.rows();
  const std::size_t R = num_classes();
  const std::size_t U = input_dim();

  ComplexMatrix& w = ota_layer_.network.mutable_weights();
  ComplexMatrix gw(H, U);
  ComplexMatrix vw(H, U);
  RealMatrix gv1(H2, H), vv1(H2, H);
  RealMatrix gv2(R, H2), vv2(R, H2);
  std::vector<double> gb1(H2, 0.0), vb1(H2, 0.0);
  std::vector<double> gb2(R, 0.0), vb2(R, 0.0);

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});

  const double symbols_per_us = options.symbol_rate_hz * 1e-6;
  std::vector<nn::Complex> augmented;
  double final_epoch_loss = 0.0;

  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    rng.Shuffle(order);
    double epoch_loss = 0.0;
    for (std::size_t start = 0; start < n;
         start += static_cast<std::size_t>(options.batch_size)) {
      const std::size_t end =
          std::min(n, start + static_cast<std::size_t>(options.batch_size));
      gw.Fill({0.0, 0.0});
      gv1.Fill(0.0);
      gv2.Fill(0.0);
      std::fill(gb1.begin(), gb1.end(), 0.0);
      std::fill(gb2.begin(), gb2.end(), 0.0);

      for (std::size_t b = start; b < end; ++b) {
        const std::size_t idx = order[b];
        const std::vector<nn::Complex>* x = &encoded.features[idx];
        if (options.sync_error_injection) {
          augmented = *x;
          const double error_us =
              rng.Bernoulli(kSyncSmallErrorMix)
                  ? rng.Uniform(0.0, options.sync_gamma_scale_us)
                  : rng.Gamma(kSyncGammaShape, options.sync_gamma_scale_us);
          CyclicShift(augmented, static_cast<std::size_t>(std::llround(
                                     error_us * symbols_per_us)));
          x = &augmented;
        }

        // ---- Forward ----
        std::vector<nn::Complex> z(H);
        std::vector<double> m(H);
        for (std::size_t h = 0; h < H; ++h) {
          const nn::Complex* row = w.row(h);
          nn::Complex acc{0.0, 0.0};
          for (std::size_t i = 0; i < U; ++i) acc += row[i] * (*x)[i];
          z[h] = acc;
          m[h] = std::abs(acc);
        }
        double mu = 0.0;
        for (const double v : m) mu += v;
        mu /= static_cast<double>(H);
        if (mu < 1e-300) continue;
        std::vector<double> mh(H);
        for (std::size_t h = 0; h < H; ++h) mh[h] = m[h] / mu;
        std::vector<double> h1(H2);
        for (std::size_t r = 0; r < H2; ++r) {
          double acc = head_.b1[r];
          const double* row = head_.v1.row(r);
          for (std::size_t c = 0; c < H; ++c) acc += row[c] * mh[c];
          h1[r] = std::max(acc, 0.0);
        }
        std::vector<double> logits(R);
        for (std::size_t r = 0; r < R; ++r) {
          double acc = head_.b2[r];
          const double* row = head_.v2.row(r);
          for (std::size_t c = 0; c < H2; ++c) acc += row[c] * h1[c];
          logits[r] = acc;
        }
        const auto probs = nn::SoftmaxScores(logits);
        const int label = encoded.labels[idx];
        epoch_loss += -std::log(std::max(probs[static_cast<std::size_t>(label)],
                                         1e-12));

        // ---- Backward ----
        std::vector<double> g_logits = probs;
        g_logits[static_cast<std::size_t>(label)] -= 1.0;
        std::vector<double> g_h1(H2, 0.0);
        for (std::size_t r = 0; r < R; ++r) {
          gb2[r] += g_logits[r];
          double* gv2_row = gv2.row(r);
          const double* v2_row = head_.v2.row(r);
          for (std::size_t c = 0; c < H2; ++c) {
            gv2_row[c] += g_logits[r] * h1[c];
            g_h1[c] += v2_row[c] * g_logits[r];
          }
        }
        for (std::size_t r = 0; r < H2; ++r) {
          if (h1[r] <= 0.0) g_h1[r] = 0.0;
        }
        std::vector<double> g_mh(H, 0.0);
        for (std::size_t r = 0; r < H2; ++r) {
          if (g_h1[r] == 0.0) continue;
          gb1[r] += g_h1[r];
          double* gv1_row = gv1.row(r);
          const double* v1_row = head_.v1.row(r);
          for (std::size_t c = 0; c < H; ++c) {
            gv1_row[c] += g_h1[r] * mh[c];
            g_mh[c] += v1_row[c] * g_h1[r];
          }
        }
        // Through the mean normalization: dL/dm_l = (1/mu) (g_mh_l -
        // mean_k(g_mh_k * mh_k)).
        double mix = 0.0;
        for (std::size_t h = 0; h < H; ++h) mix += g_mh[h] * mh[h];
        mix /= static_cast<double>(H);
        for (std::size_t h = 0; h < H; ++h) {
          const double g_m = (g_mh[h] - mix) / mu;
          if (m[h] < 1e-12) continue;
          const nn::Complex scaled = g_m * (z[h] / m[h]);
          nn::Complex* gw_row = gw.row(h);
          for (std::size_t i = 0; i < U; ++i) {
            gw_row[i] += scaled * std::conj((*x)[i]);
          }
        }
      }

      // ---- SGD with momentum ----
      const double inv_batch = 1.0 / static_cast<double>(end - start);
      const double lr = options.learning_rate;
      const double momentum = options.momentum;
      for (std::size_t h = 0; h < H; ++h) {
        nn::Complex* vw_row = vw.row(h);
        nn::Complex* gw_row = gw.row(h);
        nn::Complex* w_row = w.row(h);
        for (std::size_t i = 0; i < U; ++i) {
          vw_row[i] = momentum * vw_row[i] - lr * gw_row[i] * inv_batch;
          w_row[i] += vw_row[i];
        }
      }
      auto apply_real = [&](RealMatrix& param, RealMatrix& grad,
                            RealMatrix& velocity) {
        for (std::size_t r = 0; r < param.rows(); ++r) {
          double* p = param.row(r);
          double* g = grad.row(r);
          double* v = velocity.row(r);
          for (std::size_t c = 0; c < param.cols(); ++c) {
            v[c] = momentum * v[c] - lr * g[c] * inv_batch;
            p[c] += v[c];
          }
        }
      };
      apply_real(head_.v1, gv1, vv1);
      apply_real(head_.v2, gv2, vv2);
      for (std::size_t r = 0; r < H2; ++r) {
        vb1[r] = momentum * vb1[r] - lr * gb1[r] * inv_batch;
        head_.b1[r] += vb1[r];
      }
      for (std::size_t r = 0; r < R; ++r) {
        vb2[r] = momentum * vb2[r] - lr * gb2[r] * inv_batch;
        head_.b2[r] += vb2[r];
      }
    }
    final_epoch_loss = epoch_loss / static_cast<double>(n);
  }
  return final_epoch_loss;
}

double EvaluateHybridOverTheAir(const HybridModel& model,
                                const mts::LayerGraph& graph,
                                const sim::OtaLinkConfig& link_config,
                                const nn::RealDataset& test,
                                const sim::SyncModel& sync, Rng& rng,
                                std::size_t max_samples,
                                const DeploymentOptions& options) {
  test.Validate();
  Check(test.dim == model.input_dim(), "dataset dimension mismatch");
  // Deploy the OTA layer: the surface computes the hidden units.
  const Deployment deployment(model.ota_layer(), graph, link_config, options);
  const std::size_t n =
      max_samples > 0 ? std::min(max_samples, test.size()) : test.size();
  Check(n > 0, "empty test set");
  std::size_t correct = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double offset = sync.SampleOffsetUs(rng);
    const auto hidden =
        deployment.ClassScores(test.features[i], offset, rng);
    correct += (model.PredictFromHiddenScores(hidden) == test.labels[i]);
  }
  return static_cast<double>(correct) / static_cast<double>(n);
}

}  // namespace metaai::core
