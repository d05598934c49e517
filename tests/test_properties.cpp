// Property-based sweeps over the whole generator space: invariants that
// must hold for every category, language, seed and team size.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>

#include "hpcgpt/drb/drb.hpp"
#include "hpcgpt/minilang/parse.hpp"
#include "hpcgpt/minilang/render.hpp"
#include "hpcgpt/race/detector.hpp"
#include "hpcgpt/race/hb.hpp"
#include "hpcgpt/race/interp.hpp"

namespace hpcgpt::drb {
namespace {

using minilang::Flavor;

struct CaseParam {
  int category;
  int flavor;  // 0 = C, 1 = Fortran
};

class EveryCategory : public ::testing::TestWithParam<CaseParam> {
 protected:
  Category category() const {
    return all_categories()[static_cast<std::size_t>(GetParam().category)];
  }
  Flavor flavor() const {
    return GetParam().flavor == 0 ? Flavor::C : Flavor::Fortran;
  }
};

/// Race-free programs are deterministic: the final memory state must be
/// identical under every schedule and team size. (Racy programs may or
/// may not vary — no assertion there.)
TEST_P(EveryCategory, RaceFreeProgramsAreScheduleInvariant) {
  if (category_has_race(category())) GTEST_SKIP();
  Rng rng(500 + GetParam().category);
  for (int rep = 0; rep < 4; ++rep) {
    const TestCase tc = generate_case(category(), flavor(), rng);
    race::ExecResult reference;
    bool first = true;
    for (const std::size_t threads : {2u, 4u, 7u}) {
      for (const std::uint64_t seed : {1ull, 99ull}) {
        const race::ExecResult r = race::execute(
            tc.program, {.num_threads = threads, .seed = seed});
        if (first) {
          reference = std::move(r);
          first = false;
          continue;
        }
        EXPECT_EQ(r.scalars, reference.scalars) << tc.source;
        EXPECT_EQ(r.arrays, reference.arrays) << tc.source;
      }
    }
  }
}

/// The exact happens-before engine never reports a race on a race-free
/// program, for any tested schedule or team size (soundness of labels
/// against the reference analysis).
TEST_P(EveryCategory, ExactHbNeverFlagsRaceFree) {
  if (category_has_race(category())) GTEST_SKIP();
  Rng rng(900 + GetParam().category * 3 + GetParam().flavor);
  for (std::uint64_t rep = 0; rep < 4; ++rep) {
    const TestCase tc = generate_case(category(), flavor(), rng);
    for (const std::size_t threads : {2u, 5u}) {
      const race::ExecResult r = race::execute(
          tc.program, {.num_threads = threads, .seed = 7 + rep});
      EXPECT_TRUE(race::analyze_trace(r.trace).empty()) << tc.source;
    }
  }
}

/// Every C-flavoured rendering parses back, and re-rendering the parse is
/// a fixed point (parser/renderer agree on the whole generator space).
TEST_P(EveryCategory, CRenderParseFixedPoint) {
  if (GetParam().flavor != 0) GTEST_SKIP();
  Rng rng(1300 + GetParam().category);
  for (int rep = 0; rep < 6; ++rep) {
    const TestCase tc = generate_case(category(), Flavor::C, rng);
    minilang::Program parsed;
    ASSERT_NO_THROW(parsed = minilang::parse_c(tc.source)) << tc.source;
    const std::string once = minilang::render(parsed, Flavor::C);
    const std::string twice =
        minilang::render(minilang::parse_c(once), Flavor::C);
    EXPECT_EQ(once, twice) << tc.source;
  }
}

/// Rendered sources always carry the construct their category names:
/// SIMD categories render simd directives, accelerator categories render
/// target directives, and the Fortran flavour uses sentinels.
TEST_P(EveryCategory, SurfaceSyntaxMatchesCategory) {
  Rng rng(1700 + GetParam().category);
  for (int rep = 0; rep < 4; ++rep) {
    const TestCase tc = generate_case(category(), flavor(), rng);
    const bool fortran = flavor() == Flavor::Fortran;
    EXPECT_NE(tc.source.find(fortran ? "!$omp" : "#pragma omp"),
              std::string::npos)
        << tc.source;
    if (category() == Category::SimdDataRaces ||
        category() == Category::UseOfSimdDirectives) {
      EXPECT_NE(tc.source.find("simd"), std::string::npos) << tc.source;
    }
    if (category() == Category::AcceleratorDataRaces ||
        category() == Category::UseOfAcceleratorDirectives) {
      EXPECT_NE(tc.source.find("target teams distribute"),
                std::string::npos)
          << tc.source;
    }
  }
}

/// The interpreter never throws on generated programs (no OOB, no div0):
/// generators only emit well-formed inputs.
TEST_P(EveryCategory, GeneratedProgramsExecuteCleanly) {
  Rng rng(2100 + GetParam().category * 7 + GetParam().flavor);
  for (int rep = 0; rep < 6; ++rep) {
    const TestCase tc = generate_case(category(), flavor(), rng);
    EXPECT_NO_THROW(race::execute(tc.program,
                                  {.num_threads = 3, .seed = 11}))
        << tc.source;
  }
}

std::vector<CaseParam> all_params() {
  std::vector<CaseParam> out;
  for (int c = 0; c < 14; ++c) {
    for (int f = 0; f < 2; ++f) out.push_back({c, f});
  }
  return out;
}

std::string param_name(const ::testing::TestParamInfo<CaseParam>& info) {
  std::string name = category_name(
      all_categories()[static_cast<std::size_t>(info.param.category)]);
  for (char& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return name + (info.param.flavor == 0 ? "_C" : "_F");
}

INSTANTIATE_TEST_SUITE_P(Sweep, EveryCategory,
                         ::testing::ValuesIn(all_params()), param_name);

/// Dynamic-tool agreement: on cases where the exact engine sees a race,
/// ThreadSanitizer-sim (same engine + support gates) must agree whenever
/// it supports the case.
TEST(CrossTool, TsanAgreesWithExactEngineWhenSupported) {
  auto tsan = race::make_tsan();
  Rng rng(31337);
  for (const Category c : all_categories()) {
    const TestCase tc = generate_case(c, Flavor::C, rng);
    const race::ExecResult r =
        race::execute(tc.program, {.num_threads = 4, .seed = 1});
    const bool exact_races = !race::analyze_trace(r.trace).empty();
    const auto verdict = tsan->analyze(tc.program, Flavor::C);
    if (verdict.verdict == race::Verdict::Unsupported) continue;
    if (exact_races) {
      EXPECT_EQ(verdict.verdict, race::Verdict::Race) << tc.source;
    }
  }
}

/// TSR monotonicity: a detector's unsupported count never decreases when
/// the suite is extended.
TEST(CrossTool, UnsupportedCountsAreAdditive) {
  auto romp = race::make_romp();
  SuiteSpec small;
  small.per_racy_category = 1;
  small.per_free_category = 1;
  small.seed = 5;
  SuiteSpec large = small;
  large.per_racy_category = 3;
  large.per_free_category = 3;

  const auto count_unsupported = [&](const SuiteSpec& spec) {
    std::size_t n = 0;
    for (const TestCase& tc : generate_suite(Flavor::Fortran, spec)) {
      if (romp->analyze(tc.program, tc.flavor).verdict ==
          race::Verdict::Unsupported) {
        ++n;
      }
    }
    return n;
  };
  EXPECT_LE(count_unsupported(small), count_unsupported(large));
}

}  // namespace
}  // namespace hpcgpt::drb
