/**
 * @file
 * The one parser for unsigned decimal text: numeric HP_* values, the
 * numeric fields of HP_SAMPLE, and the counter values of stats JSON.
 */

#ifndef HP_UTIL_DECIMAL_HH
#define HP_UTIL_DECIMAL_HH

#include <cstdint>
#include <string>

namespace hp
{

/**
 * Parses @p text as decimal digits only — no sign, whitespace or base
 * prefix — of value at most @p max, so neither a negative number nor
 * an overflow can wrap into a huge value.
 * @return false with a diagnostic in @p error otherwise.
 */
bool parseDecimal(const std::string &text, std::uint64_t max,
                  std::uint64_t *out, std::string *error);

} // namespace hp

#endif // HP_UTIL_DECIMAL_HH
