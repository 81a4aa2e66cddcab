#include "base/string_utils.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace gnnmark {

std::string
join(const std::vector<std::string> &pieces, const std::string &sep)
{
    std::string out;
    for (size_t i = 0; i < pieces.size(); ++i) {
        if (i > 0)
            out += sep;
        out += pieces[i];
    }
    return out;
}

std::vector<std::string>
split(const std::string &s, char delim)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == delim) {
            out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    out.push_back(cur);
    return out;
}

bool
parseNumber(const std::string &text, double &out)
{
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (std::isspace(static_cast<unsigned char>(text[0])) ||
        end == text.c_str() || *end != '\0' || !std::isfinite(value))
        return false;
    out = value;
    return true;
}

bool
parseNumber(const std::string &text, int64_t &out)
{
    char *end = nullptr;
    errno = 0;
    const long long value = std::strtoll(text.c_str(), &end, 10);
    if (std::isspace(static_cast<unsigned char>(text[0])) ||
        end == text.c_str() || *end != '\0' || errno == ERANGE)
        return false;
    out = value;
    return true;
}

std::string
strfmt(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args2;
    va_copy(args2, args);
    int n = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    std::string out(n > 0 ? static_cast<size_t>(n) : 0, '\0');
    if (n > 0)
        std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
    va_end(args2);
    return out;
}

std::string
padLeft(const std::string &s, size_t width)
{
    if (s.size() >= width)
        return s;
    return std::string(width - s.size(), ' ') + s;
}

std::string
padRight(const std::string &s, size_t width)
{
    if (s.size() >= width)
        return s;
    return s + std::string(width - s.size(), ' ');
}

std::string
fixed(double value, int decimals)
{
    return strfmt("%.*f", decimals, value);
}

std::string
percent(double fraction, int decimals)
{
    return strfmt("%.*f%%", decimals, fraction * 100.0);
}

} // namespace gnnmark
