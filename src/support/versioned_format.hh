/**
 * @file
 * Shared header parsing for the versioned on-disk text formats
 * (`vanguard-replay vN`, `vanguard-journal vN`, `vanguard-profile
 * vN`). One policy point: a header whose magic matches but whose
 * version is unknown raises SimError(Io) naming the offending version
 * string, so a future writer's file fails loudly instead of being
 * half-parsed; a header that does not even carry the magic is the
 * caller's ordinary "not this format" parse error.
 */

#ifndef VANGUARD_SUPPORT_VERSIONED_FORMAT_HH
#define VANGUARD_SUPPORT_VERSIONED_FORMAT_HH

#include <charconv>
#include <string>
#include <system_error>

#include "support/error.hh"

namespace vanguard {

/**
 * Match `line` against "<magic> v<version>".
 *
 * @return false when the line does not start with `magic` (caller
 *         reports its usual parse error). Returns true with the
 *         parsed version when the magic matches and the version is
 *         one of [1, max_supported].
 * @throws SimError(Io) when the magic matches but the version is
 *         missing, malformed, or above max_supported — the file *is*
 *         this format, just one this build cannot read.
 */
inline bool
parseVersionedHeader(const std::string &line, const std::string &magic,
                     unsigned max_supported, unsigned *version_out)
{
    if (line.rfind(magic, 0) != 0)
        return false;
    std::string rest = line.substr(magic.size());
    // Require " v<digits>" exactly: no sign, no space, no value past
    // the range of `unsigned`. Anything else is a version this reader
    // does not understand.
    unsigned version = 0;
    bool well_formed = rest.size() >= 3 && rest[0] == ' ' &&
                       rest[1] == 'v';
    if (well_formed) {
        const char *first = rest.data() + 2;
        const char *last = rest.data() + rest.size();
        auto [end, ec] = std::from_chars(first, last, version);
        well_formed = ec == std::errc() && end == last && version > 0;
    }
    if (!well_formed || version > max_supported) {
        throw SimError(SimError::Kind::Io,
                       "unsupported " + magic + " version '" +
                           (rest.empty() ? rest : rest.substr(1)) +
                           "' (the newest this build reads is v" +
                           std::to_string(max_supported) + ")");
    }
    if (version_out != nullptr)
        *version_out = version;
    return true;
}

} // namespace vanguard

#endif // VANGUARD_SUPPORT_VERSIONED_FORMAT_HH
