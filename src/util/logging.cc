#include "util/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "sim/runtime_options.hh"

namespace hp
{

namespace
{

LogLevel
parseLogLevel()
{
    const char *v = runtimeEnv("HP_LOG_LEVEL");
    if (v == nullptr || *v == '\0')
        return LogLevel::Warn;
    if (std::strcmp(v, "quiet") == 0 || std::strcmp(v, "0") == 0)
        return LogLevel::Quiet;
    if (std::strcmp(v, "warn") == 0 || std::strcmp(v, "1") == 0)
        return LogLevel::Warn;
    if (std::strcmp(v, "info") == 0 || std::strcmp(v, "2") == 0)
        return LogLevel::Info;
    if (std::strcmp(v, "debug") == 0 || std::strcmp(v, "3") == 0)
        return LogLevel::Debug;
    std::fprintf(stderr,
                 "warn: unrecognized HP_LOG_LEVEL '%s' "
                 "(want quiet|warn|info|debug or 0-3); using warn\n",
                 v);
    return LogLevel::Warn;
}

} // namespace

LogLevel
logLevel()
{
    static const LogLevel level = parseLogLevel();
    return level;
}

void
panic(const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

void
fatal(const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    // No static destructors: fatal may fire on an executor worker (a
    // Simulator constructor is often the first reader of the HP_*
    // options), where the global executor's destructor would try to
    // join the very thread running it.
    std::fflush(nullptr);
    std::_Exit(1);
}

void
warn(const std::string &msg)
{
    if (logEnabled(LogLevel::Warn))
        std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
logInfo(const std::string &msg)
{
    if (logEnabled(LogLevel::Info))
        std::fprintf(stderr, "info: %s\n", msg.c_str());
}

void
logDebug(const std::string &msg)
{
    if (logEnabled(LogLevel::Debug))
        std::fprintf(stderr, "debug: %s\n", msg.c_str());
}

} // namespace hp
