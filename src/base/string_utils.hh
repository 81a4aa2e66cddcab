/**
 * @file
 * Small string helpers shared across the suite.
 */

#ifndef GNNMARK_BASE_STRING_UTILS_HH
#define GNNMARK_BASE_STRING_UTILS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace gnnmark {

/** Join the pieces with the given separator. */
std::string join(const std::vector<std::string> &pieces,
                 const std::string &sep);

/** Split on a single-character delimiter (no empty-piece suppression). */
std::vector<std::string> split(const std::string &s, char delim);

/**
 * Parse the whole of `text` as a finite number: no leading blanks, no
 * trailing characters, no inf or nan. Returns false, leaving `out`
 * untouched, on anything else.
 */
bool parseNumber(const std::string &text, double &out);

/** Integer twin of parseNumber(): base 10, within int64 range. */
bool parseNumber(const std::string &text, int64_t &out);

/** printf-style formatting into a std::string. */
std::string strfmt(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Left-pad / right-pad to a width with spaces (no-op if already wider). */
std::string padLeft(const std::string &s, size_t width);
std::string padRight(const std::string &s, size_t width);

/** Format a double with the given number of decimals. */
std::string fixed(double value, int decimals);

/** Format a fraction (0..1) as a percentage string, e.g. "34.3%". */
std::string percent(double fraction, int decimals = 1);

} // namespace gnnmark

#endif // GNNMARK_BASE_STRING_UTILS_HH
