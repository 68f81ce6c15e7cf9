#include "sim/runtime_options.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "util/logging.hh"

extern char **environ;

namespace hp
{

const std::vector<RuntimeOption> &
runtimeOptionTable()
{
    // Keep the declaration order readable in --help: execution knobs,
    // then fast modes, then outputs, then diagnostics.
    static const std::vector<RuntimeOption> table = {
        {"HP_JOBS", "N", "",
         "executor worker threads, 1-1024 (default: hardware "
         "concurrency)"},
        {"HP_CKPT_DIR", "dir", "",
         "spill/share checkpoint blobs across processes in this dir"},
        {"HP_SAMPLE", "K,W[,U[,S]]", "--sample=K,W[,U[,S]]",
         "SMARTS sampled mode: K windows of W insts (U detail-warmup, "
         "seed S)"},
        {"HP_SCENARIO", "path", "--scenario=path",
         "run default-config sims against this scenario spec file"},
        {"HP_STATS_JSON", "path", "--json[=path]",
         "write the hp-stats-report-v1 JSON document here"},
        {"HP_TRACE_JSON", "path", "--trace-json[=path]",
         "capture a Perfetto/Chrome trace of every run"},
        {"HP_TIMESERIES", "path", "--timeseries[=path]",
         "write per-interval registry-delta time series CSV"},
        {"HP_TS_INTERVAL", "N", "",
         "time-series sampling interval in instructions"},
        {"HP_MISS_ATTR", "0|1", "",
         "enable the per-line L1-I miss-attribution tracker"},
        {"HP_SPANS", "0|1", "--spans",
         "track request spans and tail attribution on scenario runs"},
        {"HP_SPAN_TOPK", "N", "",
         "per-chain span reservoir bound (top-K worst + uniform sample; "
         "default 64, max 2^20)"},
        {"HP_TRACE_CAP", "N", "",
         "trace event capacity per run (oldest events dropped beyond; "
         "max 2^26)"},
        {"HP_LOG_LEVEL", "quiet|warn|info|debug", "",
         "diagnostic verbosity (also accepts 0-3; default warn)"},
        {"HP_CKPT_GOLDEN_REGEN", "1", "",
         "regenerate the golden checkpoint blob (test maintenance)"},
    };
    return table;
}

bool
knownRuntimeEnv(const std::string &name)
{
    for (const RuntimeOption &opt : runtimeOptionTable()) {
        if (name == opt.env)
            return true;
    }
    return false;
}

const char *
runtimeEnv(const char *name)
{
    panicIf(!knownRuntimeEnv(name),
            std::string("runtimeEnv: undeclared option ") + name +
                " (add it to runtimeOptionTable)");
    return std::getenv(name);
}

std::vector<std::string>
unknownRuntimeEnvVars()
{
    std::vector<std::string> unknown;
    for (char **e = environ; e != nullptr && *e != nullptr; ++e) {
        const char *entry = *e;
        if (std::strncmp(entry, "HP_", 3) != 0)
            continue;
        const char *eq = std::strchr(entry, '=');
        std::string name =
            eq ? std::string(entry, eq - entry) : std::string(entry);
        if (!knownRuntimeEnv(name))
            unknown.push_back(std::move(name));
    }
    std::sort(unknown.begin(), unknown.end());
    unknown.erase(std::unique(unknown.begin(), unknown.end()),
                  unknown.end());
    return unknown;
}

std::vector<std::string>
warnUnknownRuntimeEnvOnce()
{
    static std::atomic<bool> fired{false};
    if (fired.exchange(true, std::memory_order_relaxed))
        return {};
    std::vector<std::string> unknown = unknownRuntimeEnvVars();
    for (const std::string &name : unknown) {
        warn("unrecognized environment variable " + name +
             " (not a declared HP_* runtime option; typo? "
             "see --help or sim/runtime_options.hh)");
    }
    return unknown;
}

std::string
runtimeHelpText(const std::string &bench, const std::string &extra_flags)
{
    std::string out;
    out += "usage: " + bench + " [flags]\n\n";
    out += "Common flags (see bench/bench_util.hh):\n";
    const char *common =
        "  --help                    print this help and exit\n"
        "  --json[=path]             write hp-stats-report-v1 JSON "
        "(default <bench>.stats.json)\n"
        "  --trace-json[=path]       write a Perfetto/Chrome trace\n"
        "  --timeseries[=path]       write per-interval time-series "
        "CSV\n"
        "  --sample=K,W[,U[,S]]      SMARTS sampled mode (--sample=off "
        "overrides HP_SAMPLE)\n"
        "  --scenario=path           run against a scenario spec file\n"
        "  --spans                   request spans + tailAttribution on "
        "scenario runs\n";
    out += common;
    if (!extra_flags.empty()) {
        out += "\nBench-specific flags:\n";
        out += extra_flags;
        if (out.back() != '\n')
            out += '\n';
    }
    out += "\nEnvironment variables (the declarative runtime-options "
           "table):\n";
    for (const RuntimeOption &opt : runtimeOptionTable()) {
        std::string lhs = std::string("  ") + opt.env + "=" + opt.value;
        if (lhs.size() < 30)
            lhs.resize(30, ' ');
        else
            lhs += ' ';
        out += lhs + opt.help;
        if (opt.flag[0] != '\0')
            out += std::string(" [flag: ") + opt.flag + "]";
        out += '\n';
    }
    out += "\nUnknown HP_* variables in the environment trigger a "
           "warn-once diagnostic.\n";
    return out;
}

} // namespace hp
