// Unit tests for the support library: RNG, CSV, tables, options, math.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "support/check.hpp"
#include "support/csv.hpp"
#include "support/math.hpp"
#include "support/options.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

TEST(Check, RequireThrowsInvalidArgument) {
  EXPECT_THROW(SM_REQUIRE(false, "context ", 42), support::InvalidArgument);
  EXPECT_NO_THROW(SM_REQUIRE(true, "never"));
}

TEST(Check, EnsureThrowsInternalError) {
  EXPECT_THROW(SM_ENSURE(false, "bug"), support::InternalError);
}

TEST(Check, MessageContainsContext) {
  try {
    SM_REQUIRE(false, "the answer is ", 42);
    FAIL() << "should have thrown";
  } catch (const support::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("the answer is 42"),
              std::string::npos);
  }
}

TEST(Rng, DeterministicForSameSeed) {
  support::Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  support::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, DoubleInUnitInterval) {
  support::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, DoubleMeanNearHalf) {
  support::Rng rng(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NextBelowInRange) {
  support::Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowCoversAllResidues) {
  support::Rng rng(3);
  std::vector<int> seen(7, 0);
  for (int i = 0; i < 7000; ++i) seen[rng.next_below(7)]++;
  for (int r = 0; r < 7; ++r) EXPECT_GT(seen[r], 700);
}

TEST(Rng, NextBelowZeroBoundThrows) {
  support::Rng rng(1);
  EXPECT_THROW(rng.next_below(0), support::InvalidArgument);
}

TEST(Rng, BernoulliEdgeCases) {
  support::Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  support::Rng rng(13);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, DiscreteRespectsWeights) {
  support::Rng rng(17);
  const std::vector<double> w{1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) counts[rng.discrete(w)]++;
  EXPECT_NEAR(counts[0] / double(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / double(n), 0.3, 0.01);
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[3] / double(n), 0.6, 0.01);
}

TEST(Rng, DiscreteRejectsBadWeights) {
  support::Rng rng(1);
  EXPECT_THROW(rng.discrete({}), support::InvalidArgument);
  EXPECT_THROW(rng.discrete({0.0, 0.0}), support::InvalidArgument);
  EXPECT_THROW(rng.discrete({1.0, -1.0}), support::InvalidArgument);
}

TEST(Rng, SplitProducesIndependentStream) {
  support::Rng a(42);
  support::Rng b = a.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(support::CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(support::CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(support::CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, WritesHeaderAndRows) {
  std::ostringstream os;
  support::CsvWriter csv(os);
  csv.header({"p", "errev"});
  csv.row_numeric({0.1, 0.25});
  EXPECT_EQ(os.str(), "p,errev\n0.1,0.25\n");
}

TEST(Csv, HeaderAfterRowThrows) {
  std::ostringstream os;
  support::CsvWriter csv(os);
  csv.row({"x"});
  EXPECT_THROW(csv.header({"a"}), support::InvalidArgument);
}

TEST(Csv, FormatDoubleCompact) {
  EXPECT_EQ(support::format_double(0.25), "0.25");
  EXPECT_EQ(support::format_double(1.0), "1");
  EXPECT_EQ(support::format_double(std::nan("")), "nan");
}

TEST(Table, AlignsColumns) {
  support::Table table({"name", "v"});
  table.add_row({"a", "1"});
  table.add_row({"longer", "22"});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name   | v  |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 22 |"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(Table, RowArityChecked) {
  support::Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only one"}), support::InvalidArgument);
}

TEST(Options, DefaultsAndOverrides) {
  support::Options opts;
  opts.declare("p", "0.3", "adversary resource");
  opts.declare("steps", "100", "step count");
  opts.declare("full", "false", "run the full grid");
  const char* argv[] = {"prog", "--p=0.25", "--full"};
  opts.parse(3, argv);
  EXPECT_DOUBLE_EQ(opts.get_double("p"), 0.25);
  EXPECT_EQ(opts.get_int("steps"), 100);
  EXPECT_TRUE(opts.get_bool("full"));
  EXPECT_TRUE(opts.was_set("p"));
  EXPECT_FALSE(opts.was_set("steps"));
}

TEST(Options, SeparateValueToken) {
  support::Options opts;
  opts.declare("gamma", "0.5", "switching probability");
  const char* argv[] = {"prog", "--gamma", "0.75"};
  opts.parse(3, argv);
  EXPECT_DOUBLE_EQ(opts.get_double("gamma"), 0.75);
}

TEST(Options, UnknownOptionThrows) {
  support::Options opts;
  opts.declare("x", "1", "x");
  const char* argv[] = {"prog", "--y=2"};
  EXPECT_THROW(opts.parse(2, argv), support::InvalidArgument);
}

TEST(Options, MalformedNumberThrows) {
  support::Options opts;
  opts.declare("x", "1", "x");
  const char* argv[] = {"prog", "--x=12abc"};
  opts.parse(2, argv);
  EXPECT_THROW(opts.get_int("x"), support::InvalidArgument);
}

TEST(Options, ParseErrorsSayWhatIsWrongInPlainWords) {
  // A user's mistake on the command line is reported as itself, not as
  // the text of an internal precondition.
  const auto message = [](std::vector<const char*> argv,
                          const std::string& typed = "") -> std::string {
    support::Options opts;
    opts.declare("p", "0.3", "adversary resource");
    opts.declare("d", "2", "depth");
    argv.insert(argv.begin(), "prog");
    try {
      opts.parse(static_cast<int>(argv.size()), argv.data());
      if (typed == "int") opts.get_int("d");
      if (typed == "double") opts.get_double("p");
    } catch (const support::InvalidArgument& e) {
      return e.what();
    }
    return "no error";
  };
  EXPECT_EQ(message({"--q=0.2"}), "unknown option: --q");
  EXPECT_EQ(message({"--q"}), "unknown option: --q");
  EXPECT_EQ(message({"--p"}), "option --p expects a value");
  EXPECT_EQ(message({"p=0.3"}), "expected --option, got: p=0.3");
  EXPECT_EQ(message({"--d=3x"}, "int"), "option --d is not an integer: 3x");
  EXPECT_EQ(message({"--d=x"}, "int"), "option --d is not an integer: x");
  EXPECT_EQ(message({"--d=99999999999"}, "int"),
            "option --d is not an integer: 99999999999");
  EXPECT_EQ(message({"--p=0.3y"}, "double"),
            "option --p is not a number: 0.3y");
  EXPECT_EQ(message({"--p=0.3", "--d=3"}, "int"), "no error");
}

TEST(Options, UsageMentionsAllOptions) {
  support::Options opts;
  opts.declare("alpha", "1", "the alpha knob");
  opts.declare("beta", "2", "the beta knob");
  const std::string usage = opts.usage("prog");
  EXPECT_NE(usage.find("--alpha"), std::string::npos);
  EXPECT_NE(usage.find("the beta knob"), std::string::npos);
}

TEST(Math, SpanAndDiff) {
  EXPECT_DOUBLE_EQ(support::span({1.0, 4.0, -2.0}), 6.0);
  EXPECT_DOUBLE_EQ(support::span({}), 0.0);
  EXPECT_DOUBLE_EQ(support::max_abs_diff({1.0, 2.0}, {1.5, 1.0}), 1.0);
  EXPECT_TRUE(support::almost_equal(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(support::almost_equal(1.0, 1.1));
  EXPECT_DOUBLE_EQ(support::clamp(5.0, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(support::clamp(-5.0, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(support::clamp(0.5, 0.0, 1.0), 0.5);
}

}  // namespace

namespace env_tests {

TEST(Options, EnvironmentDefaultsAndCliOverride) {
  ::setenv("SELFISH_RESOURCE_SHARE", "0.22", 1);
  support::Options opts;
  opts.declare("resource-share", "0.3", "adversary share");
  const char* argv[] = {"prog"};
  opts.parse(1, argv);
  // Environment overrides the declared default…
  EXPECT_DOUBLE_EQ(opts.get_double("resource-share"), 0.22);
  EXPECT_TRUE(opts.was_set("resource-share"));

  support::Options opts2;
  opts2.declare("resource-share", "0.3", "adversary share");
  const char* argv2[] = {"prog", "--resource-share=0.4"};
  opts2.parse(2, argv2);
  // …and the command line overrides the environment.
  EXPECT_DOUBLE_EQ(opts2.get_double("resource-share"), 0.4);
  ::unsetenv("SELFISH_RESOURCE_SHARE");
}

}  // namespace env_tests
