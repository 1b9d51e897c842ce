#include "data/ratings.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace ivmf {

SparseRatingsData GenerateSparseRatings(const RatingsConfig& config) {
  IVMF_CHECK(config.num_users > 0 && config.num_items > 0 &&
             config.num_genres > 0 && config.latent_rank > 0);
  Rng rng(config.seed);

  // Genre prototypes in latent space; item vectors cluster around them.
  Matrix genre_centers(config.num_genres, config.latent_rank);
  for (size_t g = 0; g < config.num_genres; ++g)
    for (size_t k = 0; k < config.latent_rank; ++k)
      genre_centers(g, k) = rng.Normal();

  Matrix user_factors(config.num_users, config.latent_rank);
  for (size_t i = 0; i < config.num_users; ++i)
    for (size_t k = 0; k < config.latent_rank; ++k)
      user_factors(i, k) = rng.Normal();

  SparseRatingsData data;
  data.num_users = config.num_users;
  data.num_items = config.num_items;
  data.num_genres = config.num_genres;
  data.rating_min = config.rating_min;
  data.rating_max = config.rating_max;
  data.item_genre.resize(config.num_items);
  data.triplets.reserve(static_cast<size_t>(
      config.fill * static_cast<double>(config.num_users) *
      static_cast<double>(config.num_items)));

  const double mid = 0.5 * (config.rating_min + config.rating_max);
  const double half_range = 0.5 * (config.rating_max - config.rating_min);
  const double scale =
      half_range / std::sqrt(static_cast<double>(config.latent_rank));

  for (size_t j = 0; j < config.num_items; ++j) {
    const size_t genre = rng.UniformIndex(config.num_genres);
    data.item_genre[j] = static_cast<int>(genre);
    std::vector<double> item(config.latent_rank);
    for (size_t k = 0; k < config.latent_rank; ++k)
      item[k] = genre_centers(genre, k) + 0.4 * rng.Normal();

    for (size_t i = 0; i < config.num_users; ++i) {
      if (!rng.Bernoulli(config.fill)) continue;
      double dot = 0.0;
      for (size_t k = 0; k < config.latent_rank; ++k)
        dot += user_factors(i, k) * item[k];
      // Map the latent affinity onto the star scale and round.
      double rating = mid + scale * std::tanh(0.8 * dot) * 1.2;
      rating += 0.3 * rng.Normal();
      rating = std::round(rating);
      rating = std::clamp(rating, config.rating_min, config.rating_max);
      data.triplets.push_back({i, j, rating});
    }
  }
  return data;
}

RatingsData DensifyRatings(const SparseRatingsData& data) {
  RatingsData dense;
  dense.num_genres = data.num_genres;
  dense.rating_min = data.rating_min;
  dense.rating_max = data.rating_max;
  dense.item_genre = data.item_genre;
  dense.ratings = Matrix(data.num_users, data.num_items);
  dense.mask = Matrix(data.num_users, data.num_items);
  for (const RatingTriplet& t : data.triplets) {
    dense.ratings(t.user, t.item) = t.rating;
    dense.mask(t.user, t.item) = 1.0;
  }
  return dense;
}

RatingsData GenerateRatings(const RatingsConfig& config) {
  return DensifyRatings(GenerateSparseRatings(config));
}

IntervalMatrix UserGenreIntervalMatrix(const RatingsData& data) {
  const size_t n = data.ratings.rows();
  const size_t g = data.num_genres;
  IntervalMatrix result(n, g);
  // Track whether a (user, genre) cell has seen any rating.
  Matrix seen(n, g);

  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < data.ratings.cols(); ++j) {
      if (data.mask(i, j) == 0.0) continue;
      const size_t genre = static_cast<size_t>(data.item_genre[j]);
      const double rating = data.ratings(i, j);
      if (seen(i, genre) == 0.0) {
        result.Set(i, genre, Interval::Scalar(rating));
        seen(i, genre) = 1.0;
      } else {
        Interval cur = result.At(i, genre);
        cur.lo = std::min(cur.lo, rating);
        cur.hi = std::max(cur.hi, rating);
        result.Set(i, genre, cur);
      }
    }
  }
  return result;
}

IntervalMatrix CfIntervalMatrix(const RatingsData& data, double alpha) {
  const size_t n = data.ratings.rows();
  const size_t m = data.ratings.cols();

  // Aggregates per row and per column over observed entries.
  std::vector<double> row_sum(n, 0.0), row_sumsq(n, 0.0);
  std::vector<double> col_sum(m, 0.0), col_sumsq(m, 0.0);
  std::vector<size_t> row_count(n, 0), col_count(m, 0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) {
      if (data.mask(i, j) == 0.0) continue;
      const double x = data.ratings(i, j);
      row_sum[i] += x;
      row_sumsq[i] += x * x;
      ++row_count[i];
      col_sum[j] += x;
      col_sumsq[j] += x * x;
      ++col_count[j];
    }
  }

  IntervalMatrix result(n, m);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) {
      if (data.mask(i, j) == 0.0) continue;
      const double x = data.ratings(i, j);
      // S_ij = row i ∪ column j observations; the shared entry (i, j) is
      // counted once.
      const double count =
          static_cast<double>(row_count[i] + col_count[j] - 1);
      const double sum = row_sum[i] + col_sum[j] - x;
      const double sumsq = row_sumsq[i] + col_sumsq[j] - x * x;
      const double mean = sum / count;
      const double var = std::max(0.0, sumsq / count - mean * mean);
      const double delta = alpha * std::sqrt(var);
      result.Set(i, j, Interval(x - delta, x + delta));
    }
  }
  return result;
}

SparseIntervalMatrix SparseCfIntervalMatrix(const SparseRatingsData& data,
                                            double alpha) {
  const size_t n = data.num_users;
  const size_t m = data.num_items;
  const size_t nnz = data.triplets.size();

  // Row-major order reproduces the dense CfIntervalMatrix's accumulation
  // order exactly, so the two constructions agree bit-for-bit. A stable
  // counting sort by user lays the ratings out straight into CSR arrays;
  // rows whose items arrive out of order are sorted in place (stably, so
  // duplicates keep their input order).
  std::vector<size_t> row_ptr(n + 1, 0);
  for (const RatingTriplet& t : data.triplets) {
    IVMF_CHECK_MSG(t.user < n && t.item < m,
                   "rating triplet outside the matrix shape");
    ++row_ptr[t.user + 1];
  }
  for (size_t i = 0; i < n; ++i) row_ptr[i + 1] += row_ptr[i];
  std::vector<size_t> col_idx(nnz);
  std::vector<double> rating(nnz);
  {
    std::vector<size_t> next(row_ptr.begin(), row_ptr.end() - 1);
    for (const RatingTriplet& t : data.triplets) {
      const size_t dst = next[t.user]++;
      col_idx[dst] = t.item;
      rating[dst] = t.rating;
    }
  }
  std::vector<std::pair<size_t, double>> row;
  for (size_t i = 0; i < n; ++i) {
    const size_t begin = row_ptr[i];
    const size_t end = row_ptr[i + 1];
    if (std::is_sorted(col_idx.begin() + begin, col_idx.begin() + end)) {
      continue;
    }
    row.clear();
    for (size_t k = begin; k < end; ++k) {
      row.emplace_back(col_idx[k], rating[k]);
    }
    std::stable_sort(row.begin(), row.end(), [](const auto& a, const auto& b) {
      return a.first < b.first;
    });
    for (size_t k = begin; k < end; ++k) {
      col_idx[k] = row[k - begin].first;
      rating[k] = row[k - begin].second;
    }
  }

  std::vector<double> row_sum(n, 0.0), row_sumsq(n, 0.0);
  std::vector<double> col_sum(m, 0.0), col_sumsq(m, 0.0);
  std::vector<size_t> row_count(n, 0), col_count(m, 0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      const double x = rating[k];
      row_sum[i] += x;
      row_sumsq[i] += x * x;
      ++row_count[i];
      col_sum[col_idx[k]] += x;
      col_sumsq[col_idx[k]] += x * x;
      ++col_count[col_idx[k]];
    }
  }

  // Each rating becomes [x - δ, x + δ] in place (the rating array turns
  // into the lower endpoints); a duplicated (user, item) cell merges to the
  // interval hull of its observations, as FromTriplets would.
  std::vector<double> hi(nnz);
  std::vector<double>& lo = rating;
  size_t out = 0;
  size_t row_begin = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = row_begin; k < row_ptr[i + 1]; ++k) {
      const size_t j = col_idx[k];
      const double x = lo[k];
      // S_ij = row i ∪ column j observations; the shared entry (i, j) is
      // counted once.
      const double count = static_cast<double>(row_count[i] + col_count[j] - 1);
      const double sum = row_sum[i] + col_sum[j] - x;
      const double sumsq = row_sumsq[i] + col_sumsq[j] - x * x;
      const double mean = sum / count;
      const double var = std::max(0.0, sumsq / count - mean * mean);
      const double delta = alpha * std::sqrt(var);
      const bool duplicate = out > 0 && k > row_begin && col_idx[out - 1] == j;
      if (duplicate) {
        lo[out - 1] = std::min(lo[out - 1], x - delta);
        hi[out - 1] = std::max(hi[out - 1], x + delta);
        continue;
      }
      col_idx[out] = j;
      lo[out] = x - delta;
      hi[out] = x + delta;
      ++out;
    }
    row_begin = row_ptr[i + 1];
    row_ptr[i + 1] = out;
  }
  col_idx.resize(out);
  lo.resize(out);
  hi.resize(out);
  return SparseIntervalMatrix::FromCsr(n, m, std::move(row_ptr),
                                       std::move(col_idx), std::move(lo),
                                       std::move(hi));
}

CfSplit SplitRatings(const RatingsData& data, double test_fraction, Rng& rng) {
  IVMF_CHECK(test_fraction >= 0.0 && test_fraction < 1.0);
  CfSplit split;
  split.train_mask = Matrix(data.mask.rows(), data.mask.cols());
  split.test_mask = Matrix(data.mask.rows(), data.mask.cols());
  for (size_t i = 0; i < data.mask.rows(); ++i) {
    for (size_t j = 0; j < data.mask.cols(); ++j) {
      if (data.mask(i, j) == 0.0) continue;
      if (rng.Bernoulli(test_fraction)) {
        split.test_mask(i, j) = 1.0;
      } else {
        split.train_mask(i, j) = 1.0;
      }
    }
  }
  return split;
}

double MaskedRmse(const Matrix& truth, const Matrix& predictions,
                  const Matrix& mask) {
  IVMF_CHECK(truth.rows() == predictions.rows() &&
             truth.cols() == predictions.cols() &&
             truth.rows() == mask.rows() && truth.cols() == mask.cols());
  double sum = 0.0;
  size_t count = 0;
  for (size_t i = 0; i < truth.rows(); ++i) {
    for (size_t j = 0; j < truth.cols(); ++j) {
      if (mask(i, j) == 0.0) continue;
      const double diff = truth(i, j) - predictions(i, j);
      sum += diff * diff;
      ++count;
    }
  }
  return count > 0 ? std::sqrt(sum / static_cast<double>(count)) : 0.0;
}

IntervalMatrix GenerateCategoryRangeMatrix(const CategoryRangeConfig& config) {
  IVMF_CHECK(config.num_users > 0 && config.num_categories > 0);
  Rng rng(config.seed);

  // Latent model for the base (center) rating of each user-category cell.
  Matrix user_factors(config.num_users, config.latent_rank);
  Matrix cat_factors(config.num_categories, config.latent_rank);
  for (size_t i = 0; i < config.num_users; ++i)
    for (size_t k = 0; k < config.latent_rank; ++k)
      user_factors(i, k) = rng.Normal();
  for (size_t c = 0; c < config.num_categories; ++c)
    for (size_t k = 0; k < config.latent_rank; ++k)
      cat_factors(c, k) = rng.Normal();

  const double mid = 0.5 * (config.rating_min + config.rating_max);
  const double half_range = 0.5 * (config.rating_max - config.rating_min);
  const double scale =
      half_range / std::sqrt(static_cast<double>(config.latent_rank));

  IntervalMatrix result(config.num_users, config.num_categories);
  for (size_t i = 0; i < config.num_users; ++i) {
    for (size_t c = 0; c < config.num_categories; ++c) {
      if (!rng.Bernoulli(config.matrix_density)) continue;  // empty cell
      double dot = 0.0;
      for (size_t k = 0; k < config.latent_rank; ++k)
        dot += user_factors(i, k) * cat_factors(c, k);
      double base = mid + scale * std::tanh(0.8 * dot);
      base = std::clamp(base, config.rating_min, config.rating_max);
      if (rng.Bernoulli(config.interval_density)) {
        // A range of ratings within the category: width around mean_span.
        const double span =
            std::max(0.0, config.mean_span + 0.8 * rng.Normal());
        const double lo =
            std::max(config.rating_min, base - 0.5 * span);
        const double hi = std::min(config.rating_max, base + 0.5 * span);
        result.Set(i, c, Interval(lo, hi));
      } else {
        result.Set(i, c, Interval::Scalar(std::round(base)));
      }
    }
  }
  return result;
}

}  // namespace ivmf
