/**
 * @file
 * The unified runtime-options table: every `HP_*` environment variable
 * the library reads, declared once with its value shape, its default,
 * and (where one exists) the equivalent bench flag.
 *
 * All call sites read the environment through runtimeEnv() instead of
 * a raw getenv(), so the table is provably complete: a name that is
 * not declared here panics at the call site, and unknown `HP_*`
 * variables in the process environment — typically typos like
 * HP_SAMPEL — produce a warn-once diagnostic instead of being
 * silently ignored (see warnUnknownRuntimeEnvOnce). The same table
 * generates the `--help` text every bench binary prints (see
 * bench/bench_util.hh).
 *
 * The header lives with the sim layer (it documents the simulation
 * runtime surface) but the implementation has no dependency above
 * util, because util's own logging reads HP_LOG_LEVEL through it.
 */

#ifndef HP_SIM_RUNTIME_OPTIONS_HH
#define HP_SIM_RUNTIME_OPTIONS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace hp
{

/** One declared runtime option (an HP_* env var and its bench flag). */
struct RuntimeOption
{
    /** Environment variable name ("HP_JOBS"). */
    const char *env;

    /** Value placeholder for help text ("N", "path", "0|1"). */
    const char *value;

    /** Equivalent bench command-line flag spelling, or "" if the
     *  option is environment-only. */
    const char *flag;

    /** One-line description (shown in --help). */
    const char *help;
};

/** The full declarative table, in help-display order. */
const std::vector<RuntimeOption> &runtimeOptionTable();

/** True if @p name is a declared runtime option. */
bool knownRuntimeEnv(const std::string &name);

/**
 * Reads a declared option from the environment (live, not cached:
 * tests setenv/unsetenv mid-process). Panics if @p name is not in the
 * table — an undeclared read is a library bug, not a user error.
 * @return The value, or nullptr when unset.
 */
const char *runtimeEnv(const char *name);

/** `HP_*` variables present in the environment but not declared in
 *  the table (candidate typos), sorted. */
std::vector<std::string> unknownRuntimeEnvVars();

/**
 * Warns (once per process) about every unknown HP_* variable.
 * @return The names warned about this call: the full unknown set the
 *         first time, empty on every later call — the shape the
 *         warn-once ctest asserts on.
 */
std::vector<std::string> warnUnknownRuntimeEnvOnce();

/**
 * Generated help text for a bench binary: usage line, the common
 * bench flags, and the environment-variable table. @p extra_flags
 * (optional, already formatted one per line) documents flags specific
 * to the bench.
 */
std::string runtimeHelpText(const std::string &bench,
                            const std::string &extra_flags = "");

} // namespace hp

#endif // HP_SIM_RUNTIME_OPTIONS_HH
