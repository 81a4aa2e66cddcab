#include "sim/fault_plan_io.hh"

#include <sstream>
#include <vector>

#include "base/io.hh"
#include "base/string_utils.hh"

namespace gnnmark {

namespace {

constexpr const char *kMagic = "gnnmark-fault-plan";
constexpr const char *kVersion = "v1";

/** Parse "key=value"; throws Corrupt via `fail` on anything else. */
void
splitKeyValue(const std::string &token, const std::string &context,
              std::string &key, double &value)
{
    const size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size()) {
        throw IoError(IoError::Kind::Corrupt,
                      context + ": malformed field '" + token +
                          "' (want key=value)");
    }
    key = token.substr(0, eq);
    const std::string text = token.substr(eq + 1);
    if (!parseNumber(text, value)) {
        throw IoError(IoError::Kind::Corrupt,
                      context + ": bad number '" + text + "' for field '" +
                          key + "'");
    }
}

bool
parseKind(const std::string &name, FaultKind &kind)
{
    for (FaultKind k :
         {FaultKind::ReplicaCrash, FaultKind::Straggler,
          FaultKind::DegradedLink, FaultKind::TransientKernel}) {
        if (name == faultKindName(k)) {
            kind = k;
            return true;
        }
    }
    return false;
}

/** Validate one parsed event; plan files are user input, so throw. */
void
validateEvent(const FaultEvent &e, const std::string &context)
{
    auto fail = [&](const std::string &detail) {
        throw IoError(IoError::Kind::Corrupt, context + ": " + detail);
    };
    if (e.timeSec < 0)
        fail("fault events need time >= 0");
    if (e.durationSec < 0)
        fail("fault events need duration >= 0");
    if (e.replica < 0)
        fail("fault events need replica >= 0");
    if (e.kind == FaultKind::Straggler && e.magnitude < 1.0)
        fail("straggler magnitude is a slowdown multiplier (>= 1)");
    if (e.kind == FaultKind::DegradedLink &&
        (e.magnitude <= 0 || e.magnitude > 1.0)) {
        fail("degraded-link magnitude is a bandwidth fraction in (0, 1]");
    }
}

} // namespace

std::string
faultPlanToText(const FaultPlan &plan)
{
    std::string out = strfmt("%s %s\n", kMagic, kVersion);
    for (const FaultEvent &e : plan.events()) {
        out += strfmt("%s time=%.17g", faultKindName(e.kind), e.timeSec);
        if (e.kind == FaultKind::ReplicaCrash ||
            e.kind == FaultKind::Straggler) {
            out += strfmt(" replica=%d", e.replica);
        }
        if (e.durationSec != 0)
            out += strfmt(" duration=%.17g", e.durationSec);
        if (e.kind == FaultKind::Straggler ||
            e.kind == FaultKind::DegradedLink) {
            out += strfmt(" magnitude=%.17g", e.magnitude);
        }
        out += "\n";
    }
    return out;
}

FaultPlan
faultPlanFromText(const std::string &text, const std::string &context)
{
    std::istringstream in(text);
    std::string line;
    bool sawHeader = false;
    std::vector<FaultEvent> events;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        // Strip trailing CR so plans edited on Windows still load.
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        std::istringstream tokens(line);
        std::string first;
        if (!(tokens >> first) || first[0] == '#')
            continue;
        const std::string where = strfmt("%s:%d", context.c_str(), lineno);
        if (!sawHeader) {
            if (first != kMagic) {
                throw IoError(IoError::Kind::BadMagic,
                              where + ": not a fault plan (want '" +
                                  std::string(kMagic) + "')");
            }
            std::string version;
            if (!(tokens >> version) || version != kVersion) {
                throw IoError(IoError::Kind::BadVersion,
                              where + ": unsupported fault plan version '" +
                                  version + "'");
            }
            sawHeader = true;
            continue;
        }
        FaultEvent e;
        if (!parseKind(first, e.kind)) {
            throw IoError(IoError::Kind::Corrupt,
                          where + ": unknown fault kind '" + first + "'");
        }
        bool sawTime = false;
        std::string token;
        while (tokens >> token) {
            std::string key;
            double value = 0;
            splitKeyValue(token, where, key, value);
            if (key == "time") {
                e.timeSec = value;
                sawTime = true;
            } else if (key == "replica") {
                e.replica = static_cast<int>(value);
            } else if (key == "duration") {
                e.durationSec = value;
            } else if (key == "magnitude") {
                e.magnitude = value;
            } else {
                throw IoError(IoError::Kind::Corrupt,
                              where + ": unknown field '" + key + "'");
            }
        }
        if (!sawTime) {
            throw IoError(IoError::Kind::Corrupt,
                          where + ": fault event is missing 'time='");
        }
        validateEvent(e, where);
        events.push_back(e);
    }
    if (!sawHeader) {
        throw IoError(IoError::Kind::BadMagic,
                      context + ": empty file, not a fault plan");
    }
    return FaultPlan(std::move(events));
}

void
saveFaultPlan(const std::string &path, const FaultPlan &plan)
{
    const std::string text = faultPlanToText(plan);
    writeFileBytes(path,
                   std::vector<uint8_t>(text.begin(), text.end()));
}

FaultPlan
loadFaultPlan(const std::string &path)
{
    const std::vector<uint8_t> bytes = readFileBytes(path);
    return faultPlanFromText(
        std::string(bytes.begin(), bytes.end()),
        "fault plan '" + path + "'");
}

} // namespace gnnmark
