#include "util/decimal.hh"

#include <charconv>

namespace hp
{

bool
parseDecimal(const std::string &text, std::uint64_t max,
              std::uint64_t *out, std::string *error)
{
    std::uint64_t value = 0;
    const char *end = text.data() + text.size();
    // from_chars into an unsigned type takes no sign, no whitespace
    // and no prefix, and reports overflow instead of saturating.
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec == std::errc::invalid_argument || ptr != end) {
        *error = "not a decimal number";
        return false;
    }
    if (ec == std::errc::result_out_of_range || value > max) {
        *error = "above the maximum " + std::to_string(max);
        return false;
    }
    *out = value;
    return true;
}

} // namespace hp
