// Model-comparison tests: fit_report must rank the true family first (or
// tied) on synthetic data, reproducing the paper's methodology of MLE +
// negative log-likelihood selection.
#include "dist/fit.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dist/exponential.hpp"
#include "dist/lognormal.hpp"
#include "dist/weibull.hpp"

namespace hpcfail::dist {
namespace {

std::vector<double> draw(const Distribution& d, std::size_t n,
                         std::uint64_t seed) {
  hpcfail::Rng rng(seed);
  std::vector<double> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) xs.push_back(d.sample(rng));
  return xs;
}

TEST(FitReport, SelectsWeibullForWeibullData) {
  // The paper's TBF regime: shape 0.7 on second-scale gaps.
  const Weibull truth(0.7, 90000.0);
  const auto xs = draw(truth, 10000, 101);
  const auto results = fit_report(xs, standard_families());
  EXPECT_EQ(results.front().family, Family::weibull);
  // Exponential must be clearly worse (the paper's headline negative).
  const auto& worst = results.back();
  EXPECT_EQ(worst.family, Family::exponential);
}

TEST(FitReport, SelectsLognormalForLognormalData) {
  const LogNormal truth(4.0, 2.0);  // repair-time regime
  const auto xs = draw(truth, 10000, 103);
  const auto results = fit_report(xs, standard_families());
  EXPECT_EQ(results.front().family, Family::lognormal);
}

TEST(FitReport, ExponentialDataIsNotMisrankedBadly) {
  // On truly exponential data the exponential should be within a
  // whisker of the best (Weibull/gamma nest it, so exact ordering can
  // tie); assert the negLL gap is negligible per observation.
  const Exponential truth(1.0 / 3600.0);
  const auto xs = draw(truth, 10000, 107);
  const auto results = fit_report(xs, standard_families());
  double exp_nll = 0.0;
  for (const auto& r : results) {
    if (r.family == Family::exponential) exp_nll = r.nll;
  }
  const double best_nll = results.front().nll;
  EXPECT_LT((exp_nll - best_nll) / static_cast<double>(xs.size()), 1e-3);
}

TEST(FitReport, ResultsAreSortedByNegLogLikelihood) {
  const Weibull truth(0.9, 100.0);
  const auto xs = draw(truth, 2000, 109);
  const auto results = fit_report(xs, standard_families());
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_LE(results[i - 1].nll,
              results[i].nll);
  }
}

TEST(FitReport, AicPenalizesParameterCount) {
  const Exponential truth(0.5);
  const auto xs = draw(truth, 500, 113);
  for (const auto& r : fit_report(xs, standard_families())) {
    EXPECT_NEAR(r.aic,
                2.0 * parameter_count(r.family) + 2.0 * r.nll,
                1e-9);
  }
}

TEST(FitReport, KsFieldsPopulated) {
  const Weibull truth(0.8, 50.0);
  const auto xs = draw(truth, 3000, 127);
  for (const auto& r : fit_report(xs, standard_families())) {
    EXPECT_GT(r.ks, 0.0);
    EXPECT_LE(r.ks, 1.0);
    EXPECT_GE(r.ks_pvalue, 0.0);
    EXPECT_LE(r.ks_pvalue, 1.0);
  }
}

TEST(FitReport, BestFitHasHighestKsPvalueAmongContenders) {
  const LogNormal truth(2.0, 1.5);
  const auto xs = draw(truth, 5000, 131);
  const auto results = fit_report(xs, standard_families());
  const auto& best = results.front();
  const auto& worst = results.back();
  EXPECT_GT(best.ks_pvalue, worst.ks_pvalue);
}

TEST(FitReport, SkipsFamiliesThatCannotFit) {
  // A constant positive sample: exponential and poisson-free families
  // with closed forms still fit, two-parameter families throw and are
  // skipped.
  const std::vector<double> xs = {5.0, 5.0, 5.0, 5.0};
  const auto results = fit_report(xs, standard_families());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results.front().family, Family::exponential);
}

TEST(FitReport, ThrowsWhenNothingFits) {
  const std::vector<double> zeros = {0.0, 0.0, 0.0};
  // Every positive-support family floors to a constant sample and
  // throws; normal throws on zero variance.
  const Family families[] = {Family::weibull, Family::gamma,
                             Family::lognormal, Family::normal};
  // FitError derives from NumericError, so both handlers work.
  EXPECT_THROW(fit_report(zeros, families), FitError);
  EXPECT_THROW(fit_report(zeros, families), NumericError);
}

TEST(FitReport, RecordsSampleAndFailureMetadata) {
  const std::vector<double> xs = {5.0, 5.0, 5.0, 5.0};
  const FitReport report = fit_report(xs, standard_families());
  EXPECT_EQ(report.sample_size, xs.size());
  // Exponential is closed-form; weibull/gamma/lognormal throw on the
  // constant sample.
  EXPECT_EQ(report.failed_families, 3u);
  EXPECT_EQ(report.size(), 1u);
  EXPECT_FALSE(report.empty());
  EXPECT_EQ(&report.best(), &report.front());
  EXPECT_EQ(&report[0], &report.front());
}

TEST(FitReport, CountsSolverIterationsForIterativeFamilies) {
  const Weibull truth(0.7, 90000.0);
  const auto xs = draw(truth, 2000, 211);
  const FitReport report = fit_report(xs, standard_families());
  // The Weibull shape MLE is a 1-d root find: it must have iterated.
  std::uint64_t weibull_iters = 0;
  std::uint64_t exponential_iters = 1;
  for (const auto& r : report) {
    if (r.family == Family::weibull) weibull_iters = r.iterations;
    if (r.family == Family::exponential) exponential_iters = r.iterations;
  }
  EXPECT_GT(weibull_iters, 0u);
  EXPECT_EQ(exponential_iters, 0u);  // closed form, no solver
  EXPECT_GE(report.total_iterations, weibull_iters);
}

TEST(FitReportMany, EmptyAndDegenerateSamplesYieldEmptyReports) {
  const Weibull truth(0.8, 100.0);
  const std::vector<std::vector<double>> samples = {
      draw(truth, 500, 223), {}, {0.0, 0.0, 0.0}};
  const Family families[] = {Family::weibull, Family::gamma};
  const auto reports = fit_report_many(samples, families, 1e-9);
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_FALSE(reports[0].empty());
  EXPECT_TRUE(reports[1].empty());
  EXPECT_TRUE(reports[2].empty());
  EXPECT_EQ(reports[2].failed_families, 2u);
}

TEST(FitReportMany, FitsExactlyTheFamiliesFitSucceedsOnWithAgreeingNll) {
  // The fused engine against one independent fit() per family. On these
  // samples the largest relative nll difference measured (gcc,
  // RelWithDebInfo) is 4e-15; the bound leaves headroom for other
  // compilers' floating-point contraction.
  constexpr double kRelativeNllTolerance = 1e-10;
  constexpr double kFloor = 1.0;
  const std::vector<std::vector<double>> samples = {
      draw(Weibull(0.7, 90000.0), 3000, 229),
      draw(LogNormal(8.0, 1.5), 400, 233),
      draw(Exponential(1.0 / 3600.0), 40, 239),
      {5.0, 5.0, 5.0, 5.0},  // only the closed-form exponential fits
  };
  const auto reports =
      fit_report_many(samples, standard_families(), kFloor);
  ASSERT_EQ(reports.size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    SCOPED_TRACE("sample " + std::to_string(i));
    std::map<Family, double> expected;
    for (const Family family : standard_families()) {
      try {
        expected[family] = fit(family, samples[i], kFloor).nll;
      } catch (const FitError&) {
      }
    }
    std::map<Family, double> got;
    for (const FitResult& r : reports[i]) got[r.family] = r.nll;
    ASSERT_EQ(got.size(), expected.size());
    EXPECT_EQ(reports[i].failed_families,
              standard_families().size() - expected.size());
    for (const auto& [family, nll] : expected) {
      ASSERT_TRUE(got.contains(family)) << to_string(family);
      EXPECT_NEAR(got[family], nll, kRelativeNllTolerance * std::abs(nll))
          << to_string(family);
    }
  }
}

TEST(Fit, RejectsEmptySample) {
  EXPECT_THROW(fit(Family::weibull, std::vector<double>{}),
               InvalidArgument);
}

TEST(BestStandardFit, ReturnsLowestNll) {
  const Weibull truth(0.75, 7200.0);
  const auto xs = draw(truth, 5000, 137);
  const FitResult best = best_standard_fit(xs);
  EXPECT_EQ(best.family, Family::weibull);
  ASSERT_NE(best.model, nullptr);
}

TEST(FitResult, CopyIsDeep) {
  const Weibull truth(0.75, 7200.0);
  const auto xs = draw(truth, 500, 139);
  const FitResult a = fit(Family::weibull, xs);
  FitResult b = a;  // copy
  EXPECT_NE(a.model.get(), b.model.get());
  EXPECT_EQ(a.model->describe(), b.model->describe());
  EXPECT_DOUBLE_EQ(a.nll, b.nll);
}

TEST(FamilyNames, RoundTrip) {
  EXPECT_EQ(to_string(Family::exponential), "exponential");
  EXPECT_EQ(to_string(Family::weibull), "weibull");
  EXPECT_EQ(to_string(Family::gamma), "gamma");
  EXPECT_EQ(to_string(Family::lognormal), "lognormal");
  EXPECT_EQ(to_string(Family::normal), "normal");
  EXPECT_EQ(to_string(Family::poisson), "poisson");
  EXPECT_EQ(to_string(Family::pareto), "pareto");
  EXPECT_EQ(to_string(Family::hyperexp), "hyperexp");
}

TEST(Families, AllFamiliesCoversTheEnumInOrder) {
  const auto all = all_families();
  ASSERT_EQ(all.size(), 8u);
  EXPECT_EQ(all.front(), Family::exponential);
  EXPECT_EQ(all.back(), Family::hyperexp);
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(static_cast<int>(all[i - 1]), static_cast<int>(all[i]));
  }
}

TEST(Fit, ConstantSampleThrowsTypedFitErrorPerFamily) {
  // Regression: a constant-valued sample used to spin two-parameter
  // solvers to their iteration cap; now every family that cannot
  // represent zero variance rejects it immediately with FitError.
  const std::vector<double> xs = {7.5, 7.5, 7.5, 7.5, 7.5, 7.5, 7.5, 7.5};
  for (const Family family :
       {Family::weibull, Family::gamma, Family::lognormal, Family::normal,
        Family::pareto, Family::hyperexp}) {
    EXPECT_THROW(fit(family, xs), FitError) << to_string(family);
  }
  // The closed-form rate/count families still fit a constant sample.
  EXPECT_NO_THROW(fit(Family::exponential, xs));
}

TEST(FitReport, ConstantSampleLandsInFailedFamiliesNotIterations) {
  const std::vector<double> xs(32, 7.5);
  const FitReport report = fit_report(xs, all_families());
  // exponential and poisson fit; the six variance-requiring families
  // are counted as failed instead of burning solver iterations.
  EXPECT_EQ(report.failed_families, 6u);
  ASSERT_EQ(report.size(), 2u);
  EXPECT_EQ(report.total_iterations, 0u);
}

}  // namespace
}  // namespace hpcfail::dist
