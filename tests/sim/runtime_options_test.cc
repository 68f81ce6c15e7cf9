#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "sim/runtime_options.hh"
#include "util/decimal.hh"

namespace hp
{
namespace
{

TEST(RuntimeOptionsTest, TableDeclaresTheRuntimeSurface)
{
    const auto &table = runtimeOptionTable();
    ASSERT_FALSE(table.empty());

    // Every historical getenv site must be represented.
    for (const char *name :
         {"HP_JOBS", "HP_CKPT_DIR", "HP_SAMPLE",
          "HP_SCENARIO", "HP_STATS_JSON", "HP_TRACE_JSON",
          "HP_TIMESERIES", "HP_TS_INTERVAL", "HP_MISS_ATTR",
          "HP_TRACE_CAP", "HP_LOG_LEVEL", "HP_CKPT_GOLDEN_REGEN"}) {
        EXPECT_TRUE(knownRuntimeEnv(name)) << name;
    }
    EXPECT_FALSE(knownRuntimeEnv("HP_NOT_A_THING"));

    // Table hygiene: unique names, HP_ prefix, non-empty help.
    for (std::size_t i = 0; i < table.size(); ++i) {
        EXPECT_EQ(std::string(table[i].env).rfind("HP_", 0), 0u);
        EXPECT_FALSE(std::string(table[i].help).empty());
        for (std::size_t j = i + 1; j < table.size(); ++j)
            EXPECT_STRNE(table[i].env, table[j].env);
    }
}

TEST(RuntimeOptionsTest, RuntimeEnvIsLive)
{
    ASSERT_EQ(runtimeEnv("HP_TS_INTERVAL"), nullptr);
    ::setenv("HP_TS_INTERVAL", "12345", 1);
    ASSERT_STREQ(runtimeEnv("HP_TS_INTERVAL"), "12345");
    ::unsetenv("HP_TS_INTERVAL");
    EXPECT_EQ(runtimeEnv("HP_TS_INTERVAL"), nullptr);
}

TEST(RuntimeOptionsTest, UnknownVarsDetected)
{
    ::setenv("HP_BOGUS_TYPO", "1", 1);
    std::vector<std::string> unknown = unknownRuntimeEnvVars();
    EXPECT_NE(std::find(unknown.begin(), unknown.end(),
                        "HP_BOGUS_TYPO"),
              unknown.end());
    // Declared names never show up, set or not.
    ::setenv("HP_TS_INTERVAL", "5", 1);
    unknown = unknownRuntimeEnvVars();
    EXPECT_EQ(std::find(unknown.begin(), unknown.end(),
                        "HP_TS_INTERVAL"),
              unknown.end());
    ::unsetenv("HP_TS_INTERVAL");
    ::unsetenv("HP_BOGUS_TYPO");
}

TEST(RuntimeOptionsTest, WarnOnceReturnsOnce)
{
    ::setenv("HP_BOGUS_WARNME", "1", 1);
    std::vector<std::string> first = warnUnknownRuntimeEnvOnce();
    std::vector<std::string> second = warnUnknownRuntimeEnvOnce();
    // The process-wide latch may have been consumed by an earlier
    // test in this binary; either way, the second call is empty.
    EXPECT_TRUE(second.empty());
    if (!first.empty()) {
        EXPECT_NE(std::find(first.begin(), first.end(),
                            "HP_BOGUS_WARNME"),
                  first.end());
    }
    ::unsetenv("HP_BOGUS_WARNME");
}

TEST(RuntimeOptionsTest, ParseDecimalAcceptsDigitsOnly)
{
    std::uint64_t v = 7;
    std::string err;
    ASSERT_TRUE(parseDecimal("0", 10, &v, &err));
    EXPECT_EQ(v, 0u);
    ASSERT_TRUE(parseDecimal("1024", 1024, &v, &err));
    EXPECT_EQ(v, 1024u);
    ASSERT_TRUE(parseDecimal("18446744073709551615", ~std::uint64_t(0),
                             &v, &err));
    EXPECT_EQ(v, ~std::uint64_t(0));

    // No sign, whitespace, prefix or exponent: strtoull would accept
    // the first four and wrap "-1" to 2^64-1.
    for (const char *bad : {"-1", "+5", " 5", "5 ", "", "0x10", "1e3",
                            "12abc"}) {
        v = 7;
        err.clear();
        EXPECT_FALSE(parseDecimal(bad, ~std::uint64_t(0), &v, &err))
            << "'" << bad << "'";
        EXPECT_NE(err.find("not a decimal number"), std::string::npos)
            << bad;
        EXPECT_EQ(v, 7u) << bad; // untouched on failure
    }

    // Overflow and the per-option maximum are rejected, not clamped.
    for (const char *big : {"18446744073709551616",
                            "99999999999999999999"}) {
        EXPECT_FALSE(parseDecimal(big, ~std::uint64_t(0), &v, &err))
            << big;
        EXPECT_NE(err.find("maximum"), std::string::npos) << big;
    }
    EXPECT_FALSE(parseDecimal("1025", 1024, &v, &err));
    EXPECT_NE(err.find("maximum 1024"), std::string::npos);
}

TEST(RuntimeOptionsTest, HelpTextCoversFlagsAndEnv)
{
    const std::string help =
        runtimeHelpText("my_bench", "  --smoke   tiny run\n");
    EXPECT_NE(help.find("my_bench"), std::string::npos);
    EXPECT_NE(help.find("--smoke"), std::string::npos);
    EXPECT_NE(help.find("--json"), std::string::npos);
    EXPECT_NE(help.find("HP_SAMPLE"), std::string::npos);
    EXPECT_NE(help.find("HP_JOBS"), std::string::npos);
    // Every table row appears.
    for (const RuntimeOption &opt : runtimeOptionTable())
        EXPECT_NE(help.find(opt.env), std::string::npos) << opt.env;
}

} // namespace
} // namespace hp
