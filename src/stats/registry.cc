#include "stats/registry.hh"

#include <cctype>
#include <sstream>
#include <unordered_set>

#include "util/decimal.hh"
#include "util/logging.hh"

namespace hp
{

// ---- StatsSnapshot ----

void
StatsSnapshot::add(std::string path, std::uint64_t value)
{
    entries_.emplace_back(std::move(path), value);
}

bool
StatsSnapshot::has(const std::string &path) const
{
    for (const Entry &e : entries_) {
        if (e.first == path)
            return true;
    }
    return false;
}

std::uint64_t
StatsSnapshot::value(const std::string &path) const
{
    for (const Entry &e : entries_) {
        if (e.first == path)
            return e.second;
    }
    panic("StatsSnapshot: unknown stat path '" + path + "'");
}

StatsSnapshot
StatsSnapshot::delta(const StatsSnapshot &later,
                     const StatsSnapshot &earlier)
{
    panicIf(later.size() != earlier.size(),
            "StatsSnapshot::delta: snapshots differ in size");
    StatsSnapshot out;
    for (std::size_t i = 0; i < later.entries_.size(); ++i) {
        const Entry &end = later.entries_[i];
        const Entry &begin = earlier.entries_[i];
        panicIf(end.first != begin.first,
                "StatsSnapshot::delta: path mismatch at '" + end.first +
                    "' vs '" + begin.first + "'");
        panicIf(end.second < begin.second,
                "StatsSnapshot::delta: counter '" + end.first +
                    "' went backwards");
        out.add(end.first, end.second - begin.second);
    }
    return out;
}

std::string
StatsSnapshot::toJson(unsigned indent) const
{
    const std::string pad(indent, ' ');
    std::ostringstream out;
    out << pad << "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        out << (i ? "," : "") << "\n" << pad << "  \""
            << entries_[i].first << "\": " << entries_[i].second;
    }
    if (!entries_.empty())
        out << "\n" << pad;
    out << "}";
    return out.str();
}

namespace
{

void
skipSpace(const std::string &s, std::size_t &pos)
{
    while (pos < s.size() &&
           std::isspace(static_cast<unsigned char>(s[pos]))) {
        ++pos;
    }
}

void
expect(const std::string &s, std::size_t &pos, char c)
{
    skipSpace(s, pos);
    fatalIf(pos >= s.size() || s[pos] != c,
            std::string("StatsSnapshot::fromJson: expected '") + c +
                "' at offset " + std::to_string(pos));
    ++pos;
}

std::string
parseString(const std::string &s, std::size_t &pos)
{
    expect(s, pos, '"');
    std::string out;
    while (pos < s.size() && s[pos] != '"')
        out.push_back(s[pos++]);
    expect(s, pos, '"');
    return out;
}

std::uint64_t
parseUint(const std::string &s, std::size_t &pos)
{
    skipSpace(s, pos);
    fatalIf(pos >= s.size() ||
                !std::isdigit(static_cast<unsigned char>(s[pos])),
            "StatsSnapshot::fromJson: expected integer at offset " +
                std::to_string(pos));
    const std::size_t start = pos;
    while (pos < s.size() &&
           std::isdigit(static_cast<unsigned char>(s[pos]))) {
        ++pos;
    }
    std::uint64_t value = 0;
    std::string why;
    fatalIf(!parseDecimal(s.substr(start, pos - start),
                          ~std::uint64_t(0), &value, &why),
            "StatsSnapshot::fromJson: integer at offset " +
                std::to_string(start) + " is " + why);
    return value;
}

} // namespace

StatsSnapshot
StatsSnapshot::fromJson(const std::string &text)
{
    StatsSnapshot out;
    // String keys, checked once per parsed report.
    std::unordered_set<std::string> seen;
    std::size_t pos = 0;
    expect(text, pos, '{');
    skipSpace(text, pos);
    bool more = pos >= text.size() || text[pos] != '}';
    while (more) {
        skipSpace(text, pos);
        const std::size_t at = pos;
        std::string path = parseString(text, pos);
        fatalIf(!seen.insert(path).second,
                "StatsSnapshot::fromJson: duplicate path '" + path +
                    "' at offset " + std::to_string(at));
        expect(text, pos, ':');
        out.add(std::move(path), parseUint(text, pos));
        skipSpace(text, pos);
        more = pos < text.size() && text[pos] == ',';
        pos += more;
    }
    expect(text, pos, '}');
    skipSpace(text, pos);
    fatalIf(pos != text.size(),
            "StatsSnapshot::fromJson: unexpected text after '}' at "
            "offset " + std::to_string(pos));
    return out;
}

// ---- StatsRegistry ----

void
StatsRegistry::add(std::string path, Reader reader)
{
    panicIf(!reader, "StatsRegistry: null reader for '" + path + "'");
    panicIf(has(path),
            "StatsRegistry: duplicate stat path '" + path + "'");
    stats_.emplace_back(std::move(path), std::move(reader));
}

bool
StatsRegistry::has(const std::string &path) const
{
    for (const auto &stat : stats_) {
        if (stat.first == path)
            return true;
    }
    return false;
}

std::vector<std::string>
StatsRegistry::paths() const
{
    std::vector<std::string> out;
    out.reserve(stats_.size());
    for (const auto &stat : stats_)
        out.push_back(stat.first);
    return out;
}

std::uint64_t
StatsRegistry::value(const std::string &path) const
{
    return reader(path)();
}

const StatsRegistry::Reader &
StatsRegistry::reader(const std::string &path) const
{
    for (const auto &stat : stats_) {
        if (stat.first == path)
            return stat.second;
    }
    panic("StatsRegistry: unknown stat path '" + path + "'");
}

StatsSnapshot
StatsRegistry::snapshot() const
{
    StatsSnapshot out;
    for (const auto &stat : stats_)
        out.add(stat.first, stat.second());
    return out;
}

} // namespace hp
