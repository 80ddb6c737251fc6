#include "core/replay.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "support/ipc.hh"
#include "support/versioned_format.hh"

namespace vanguard {

// v2 carries the exact job frame; a v1 bundle held a lossy copy of the
// job, so it is refused rather than replayed.
constexpr unsigned kReplayVersion = 2;

std::string
serializeReplayJob(const ReplayJob &r)
{
    std::string msg = r.errorMessage;
    std::replace(msg.begin(), msg.end(), '\n', ' ');
    return "vanguard-replay v" + std::to_string(kReplayVersion) +
           "\nerror-kind " + r.errorKind + "\nerror-msg " + msg + "\n" +
           serializeWorkerJob(r.job);
}

bool
parseReplayJob(const std::string &text, ReplayJob *out, std::string *error)
{
    ipc::BodyCursor cur{text};
    std::string line;
    unsigned version = 0;
    // An unknown/future version raises SimError(Io) naming it (shared
    // policy with the journal format).
    if (!cur.line(&line) ||
        !parseVersionedHeader(line, "vanguard-replay", kReplayVersion,
                              &version)) {
        *error = "missing 'vanguard-replay v2' header";
        return false;
    }
    if (version != kReplayVersion) {
        *error = "vanguard-replay v" + std::to_string(version) +
                 " bundles are no longer read (this build reads v2); "
                 "re-run the failing sweep with --replay-dir";
        return false;
    }
    // The recorded failure: two lines, each with its key.
    auto field = [&](const std::string &key, std::string *value) {
        if (!cur.line(&line) || line.rfind(key + " ", 0) != 0) {
            *error = "missing '" + key + "' line";
            return false;
        }
        *value = line.substr(key.size() + 1);
        return true;
    };
    if (!field("error-kind", &out->errorKind) ||
        !field("error-msg", &out->errorMessage))
        return false;
    if (SimError::kindName(SimError::kindFromName(out->errorKind)) !=
        out->errorKind) {
        *error = "unknown error-kind '" + out->errorKind + "'";
        return false;
    }
    return parseWorkerJob(text.substr(cur.pos), &out->job, error);
}

bool
loadReplayJob(const std::string &path, ReplayJob *out, std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        *error = "cannot read '" + path + "'";
        return false;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    return parseReplayJob(buf.str(), out, error);
}

} // namespace vanguard
