/**
 * @file
 * Name tables for small enums: one {value, name} list gives both
 * directions, and a parse failure names every valid choice. The first
 * name of a value is canonical; a value listed again is an alias.
 */

#ifndef CLUMSY_COMMON_NAMES_HH
#define CLUMSY_COMMON_NAMES_HH

#include <cstddef>
#include <string>
#include <utility>

#include "common/logging.hh"

namespace clumsy
{

template <typename E, std::size_t N>
using EnumNames = std::pair<E, const char *>[N];

/** The canonical name of @p value. */
template <typename E, std::size_t N>
const char *
nameOf(const EnumNames<E, N> &names, E value)
{
    for (const auto &[v, name] : names) {
        if (v == value)
            return name;
    }
    panic("unnamed enum value");
}

/**
 * The value named @p text. fatal()s with "unknown <what> '<text>'
 * (valid choices: a, b, c)" on anything else.
 */
template <typename E, std::size_t N>
E
valueNamed(const EnumNames<E, N> &names, const char *what,
           const std::string &text)
{
    std::string choices;
    for (const auto &[v, name] : names) {
        if (text == name)
            return v;
        if (nameOf(names, v) == name)
            choices += (choices.empty() ? "" : ", ") + std::string(name);
    }
    fatal("unknown %s '%s' (valid choices: %s)", what, text.c_str(),
          choices.c_str());
}

} // namespace clumsy

#endif // CLUMSY_COMMON_NAMES_HH
