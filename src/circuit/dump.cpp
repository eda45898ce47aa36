#include "circuit/dump.hpp"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "device/level1_model.hpp"
#include "device/level61_model.hpp"
#include "util/diag.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/result_cache.hpp"
#include "util/stats_registry.hpp"

namespace otft::circuit::dump {

namespace {

/**
 * Doubles serialize via %.17g, which round-trips binary64 exactly —
 * the replay contract depends on it. JSON has no NaN/Inf literals, so
 * non-finite values become the quoted strings "NaN"/"Inf"/"-Inf"
 * (unlike telemetry, a forensics artifact must not launder a NaN
 * operating point into a 0).
 */
void
appendNumber(std::ostringstream &oss, double v)
{
    if (std::isnan(v)) {
        oss << "\"NaN\"";
        return;
    }
    if (std::isinf(v)) {
        oss << (v > 0.0 ? "\"Inf\"" : "\"-Inf\"");
        return;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    oss << buf;
}

void
appendNumberArray(std::ostringstream &oss,
                  const std::vector<double> &vs)
{
    oss << "[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
        oss << (i ? "," : "");
        appendNumber(oss, vs[i]);
    }
    oss << "]";
}

/** Inverse of appendNumber: accept a number or a NaN/Inf string. */
double
numberOf(const json::Value &v)
{
    if (v.isNumber())
        return v.asNumber();
    if (v.isString()) {
        const std::string &s = v.asString();
        if (s == "NaN")
            return std::numeric_limits<double>::quiet_NaN();
        if (s == "Inf")
            return std::numeric_limits<double>::infinity();
        if (s == "-Inf")
            return -std::numeric_limits<double>::infinity();
    }
    fatal("diag dump: expected a number, got ", toString(v.kind()));
}

std::vector<double>
numberArrayOf(const json::Value &v)
{
    std::vector<double> out;
    for (const json::Value &item : v.asArray())
        out.push_back(numberOf(item));
    return out;
}

/**
 * Parameters of each model family in a fixed order, so a dump is a
 * stable array rather than a name soup. Extending a params struct
 * means extending the matching list here (the reader is positional).
 */
std::vector<double>
modelParams(const device::TransistorModel &model)
{
    const std::string kind = model.name();
    if (kind == "level1") {
        const auto &p =
            static_cast<const device::Level1Model &>(model).params();
        return {p.vt, p.u0, p.lambda};
    }
    if (kind == "level61") {
        const auto &p =
            static_cast<const device::Level61Model &>(model).params();
        return {p.vt0, p.vdsRef, p.dibl, p.diblVmax, p.u0, p.gamma,
                p.vaa, p.ss, p.alphaSat, p.lambda, p.iOff};
    }
    fatal("diag dump: unserializable model kind '", kind, "'");
}

device::TransistorModelPtr
rebuildModel(const std::string &kind, device::Polarity polarity,
             const device::Geometry &geometry,
             const std::vector<double> &p)
{
    const auto need = [&](std::size_t n) {
        if (p.size() != n)
            fatal("diag dump: model '", kind, "' expects ", n,
                  " params, got ", p.size());
    };
    if (kind == "level1") {
        need(3);
        device::Level1Params params;
        params.vt = p[0];
        params.u0 = p[1];
        params.lambda = p[2];
        return std::make_shared<device::Level1Model>(polarity, geometry,
                                                     params);
    }
    if (kind == "level61") {
        need(11);
        device::Level61Params params;
        params.vt0 = p[0];
        params.vdsRef = p[1];
        params.dibl = p[2];
        params.diblVmax = p[3];
        params.u0 = p[4];
        params.gamma = p[5];
        params.vaa = p[6];
        params.ss = p[7];
        params.alphaSat = p[8];
        params.lambda = p[9];
        params.iOff = p[10];
        return std::make_shared<device::Level61Model>(polarity,
                                                      geometry, params);
    }
    fatal("diag dump: unknown model kind '", kind, "'");
}

} // namespace

const char *
toString(SolveKind kind)
{
    return kind == SolveKind::Dc ? "dc" : "transient_step";
}

std::string
serializeDump(const Circuit &circuit, const NewtonConfig &config,
              const Solution &x0, SolveKind kind, double time,
              double source_scale, double dt, const Solution *x_prev,
              const std::string &reason, const std::string &context,
              std::span<const IterationSample> trace)
{
    std::ostringstream oss;
    oss << "{\n";
    oss << "  \"schema\": \"" << dumpSchema << "\",\n";
    oss << "  \"reason\": \"" << json::escape(reason) << "\",\n";
    oss << "  \"context\": \"" << json::escape(context) << "\",\n";

    oss << "  \"solve\": {\"kind\": \"" << toString(kind)
        << "\", \"time\": ";
    appendNumber(oss, time);
    oss << ", \"source_scale\": ";
    appendNumber(oss, source_scale);
    oss << ", \"dt\": ";
    appendNumber(oss, dt);
    oss << "},\n";

    oss << "  \"newton\": {\"gmin\": ";
    appendNumber(oss, config.gmin);
    oss << ", \"max_iterations\": " << config.maxIterations
        << ", \"tolerance\": ";
    appendNumber(oss, config.tolerance);
    oss << ", \"max_step\": ";
    appendNumber(oss, config.maxStep);
    oss << ", \"chord\": " << (config.chord ? "true" : "false")
        << ", \"chord_refresh_ratio\": ";
    appendNumber(oss, config.chordRefreshRatio);
    oss << ", \"singular_gmin_boost\": ";
    appendNumber(oss, config.singularGminBoost);
    oss << "},\n";

    oss << "  \"circuit\": {\n";
    oss << "    \"nodes\": [";
    for (std::size_t n = 0; n < circuit.numNodes(); ++n)
        oss << (n ? ", " : "") << "\""
            << json::escape(circuit.nodeName(static_cast<NodeId>(n)))
            << "\"";
    oss << "],\n";

    oss << "    \"resistors\": [";
    bool first = true;
    for (const auto &r : circuit.resistors()) {
        oss << (first ? "" : ", ") << "[" << r.a << "," << r.b << ",";
        appendNumber(oss, r.resistance);
        oss << "]";
        first = false;
    }
    oss << "],\n";

    oss << "    \"capacitors\": [";
    first = true;
    for (const auto &c : circuit.capacitors()) {
        oss << (first ? "" : ", ") << "[" << c.a << "," << c.b << ",";
        appendNumber(oss, c.capacitance);
        oss << "]";
        first = false;
    }
    oss << "],\n";

    oss << "    \"vsources\": [";
    first = true;
    for (const auto &s : circuit.voltageSources()) {
        oss << (first ? "" : ", ") << "{\"pos\": " << s.pos
            << ", \"neg\": " << s.neg << ", \"ts\": ";
        appendNumberArray(oss, s.wave.breakpoints());
        oss << ", \"vs\": ";
        appendNumberArray(oss, s.wave.values());
        oss << "}";
        first = false;
    }
    oss << "],\n";

    oss << "    \"isources\": [";
    first = true;
    for (const auto &s : circuit.currentSources()) {
        oss << (first ? "" : ", ") << "[" << s.pos << "," << s.neg
            << ",";
        appendNumber(oss, s.current);
        oss << "]";
        first = false;
    }
    oss << "],\n";

    oss << "    \"fets\": [";
    first = true;
    for (const auto &fet : circuit.fets()) {
        const device::Geometry &g = fet.model->geometry();
        oss << (first ? "" : ", ") << "{\"model\": \""
            << json::escape(fet.model->name()) << "\", \"polarity\": \""
            << device::toString(fet.model->polarity())
            << "\", \"name\": \"" << json::escape(fet.name)
            << "\", \"d\": " << fet.drain << ", \"g\": " << fet.gate
            << ", \"s\": " << fet.source << ", \"geometry\": ";
        appendNumberArray(oss, {g.w, g.l, g.ci});
        oss << ", \"params\": ";
        appendNumberArray(oss, modelParams(*fet.model));
        oss << "}";
        first = false;
    }
    oss << "]\n  },\n";

    oss << "  \"x0\": ";
    appendNumberArray(oss, x0);
    oss << ",\n";
    if (x_prev != nullptr) {
        oss << "  \"x_prev\": ";
        appendNumberArray(oss, *x_prev);
        oss << ",\n";
    }

    oss << "  \"trace\": [";
    first = true;
    for (const auto &s : trace) {
        oss << (first ? "" : ", ") << "[" << s.iteration << ",";
        appendNumber(oss, s.residualNorm);
        oss << ",";
        appendNumber(oss, s.maxUpdate);
        oss << "," << (s.chord ? 1 : 0) << "]";
        first = false;
    }
    oss << "]\n}\n";
    return oss.str();
}

std::string
writeFailureDump(const Circuit &circuit, const NewtonConfig &config,
                 const Solution &x0, SolveKind kind, double time,
                 double source_scale, double dt,
                 const Solution *x_prev, const std::string &reason,
                 std::span<const IterationSample> trace)
{
    auto &collector = diag::Collector::instance();
    if (!collector.dumpsEnabled())
        return "";
    if (trace.size() > dumpedIterations)
        trace = trace.last(dumpedIterations);

    std::string body;
    try {
        body = serializeDump(circuit, config, x0, kind, time,
                             source_scale, dt, x_prev, reason,
                             diag::context(), trace);
    } catch (const FatalError &e) {
        // Diagnostics must never take down the run they diagnose.
        warn("diag dump skipped: ", e.what());
        return "";
    }

    cache::KeyHasher hasher;
    hasher.add("otft-diag-dump-v1");
    hasher.add(body);
    char name[40];
    std::snprintf(name, sizeof(name), "dump_%016llx.json",
                  static_cast<unsigned long long>(hasher.digest()));
    const std::string path = collector.dumpDirectory() + "/" + name;

    if (!collector.recordDump(path))
        return ""; // per-process cap reached

    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) {
        std::ofstream out(path);
        if (!out) {
            warn("diag dump: cannot write '", path, "'");
            return "";
        }
        out << body;
        static stats::Counter &stat_dumps = stats::counter(
            "diag.dumps_written", "failure forensics dumps written");
        ++stat_dumps;
        inform("diag: wrote failure dump ", path, " (", reason, ")");
    }
    return path;
}

FailureDump
parseFailureDump(const std::string &text)
{
    const json::Value doc = json::parse(text);
    if (doc.string("schema") != dumpSchema)
        fatal("diag dump: schema mismatch, expected '", dumpSchema,
              "', got '", doc.string("schema"), "'");

    FailureDump out;
    out.reason = doc.string("reason");
    out.context = doc.string("context");

    const json::Value &solve = doc.at("solve");
    out.kind = solve.string("kind") == "dc" ? SolveKind::Dc
                                            : SolveKind::TransientStep;
    out.time = numberOf(solve.at("time"));
    out.sourceScale = numberOf(solve.at("source_scale"));
    out.dt = numberOf(solve.at("dt"));

    const json::Value &newton = doc.at("newton");
    out.config.gmin = numberOf(newton.at("gmin"));
    out.config.maxIterations =
        static_cast<int>(numberOf(newton.at("max_iterations")));
    out.config.tolerance = numberOf(newton.at("tolerance"));
    out.config.maxStep = numberOf(newton.at("max_step"));
    out.config.chord = newton.at("chord").asBool();
    out.config.chordRefreshRatio =
        numberOf(newton.at("chord_refresh_ratio"));
    out.config.singularGminBoost =
        numberOf(newton.at("singular_gmin_boost"));

    const json::Value &ckt = doc.at("circuit");
    const auto &nodes = ckt.at("nodes").asArray();
    if (nodes.empty())
        fatal("diag dump: circuit has no nodes");
    // The Circuit constructor creates ground (index 0) itself.
    for (std::size_t n = 1; n < nodes.size(); ++n)
        out.circuit.addNode(nodes[n].asString());

    for (const json::Value &r : ckt.at("resistors").asArray()) {
        const auto v = numberArrayOf(r);
        out.circuit.addResistor(static_cast<NodeId>(v.at(0)),
                                static_cast<NodeId>(v.at(1)), v.at(2));
    }
    for (const json::Value &c : ckt.at("capacitors").asArray()) {
        const auto v = numberArrayOf(c);
        out.circuit.addCapacitor(static_cast<NodeId>(v.at(0)),
                                 static_cast<NodeId>(v.at(1)), v.at(2));
    }
    for (const json::Value &s : ckt.at("vsources").asArray()) {
        out.circuit.addVoltageSource(
            static_cast<NodeId>(s.number("pos")),
            static_cast<NodeId>(s.number("neg")),
            Pwl::points(numberArrayOf(s.at("ts")),
                        numberArrayOf(s.at("vs"))));
    }
    for (const json::Value &s : ckt.at("isources").asArray()) {
        const auto v = numberArrayOf(s);
        out.circuit.addCurrentSource(static_cast<NodeId>(v.at(0)),
                                     static_cast<NodeId>(v.at(1)),
                                     v.at(2));
    }
    for (const json::Value &f : ckt.at("fets").asArray()) {
        const auto geom = numberArrayOf(f.at("geometry"));
        if (geom.size() != 3)
            fatal("diag dump: fet geometry needs [w, l, ci]");
        device::Geometry geometry;
        geometry.w = geom[0];
        geometry.l = geom[1];
        geometry.ci = geom[2];
        const device::Polarity polarity =
            f.string("polarity") == "n" ? device::Polarity::NType
                                        : device::Polarity::PType;
        out.circuit.addFet(
            rebuildModel(f.string("model"), polarity, geometry,
                         numberArrayOf(f.at("params"))),
            static_cast<NodeId>(f.number("d")),
            static_cast<NodeId>(f.number("g")),
            static_cast<NodeId>(f.number("s")), f.string("name"));
    }

    out.x0 = numberArrayOf(doc.at("x0"));
    if (doc.has("x_prev")) {
        out.hasPrev = true;
        out.xPrev = numberArrayOf(doc.at("x_prev"));
    }

    for (const json::Value &s : doc.at("trace").asArray()) {
        const auto v = numberArrayOf(s);
        if (v.size() != 4)
            fatal("diag dump: trace rows are "
                  "[iter, residual, update, chord]");
        out.trace.push_back({static_cast<int>(v[0]), v[1], v[2],
                             v[3] != 0.0});
    }
    return out;
}

FailureDump
readFailureDump(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("diag dump: cannot open '", path, "'");
    std::ostringstream text;
    text << in.rdbuf();
    return parseFailureDump(text.str());
}

ReplayResult
replayDump(const FailureDump &dump)
{
    Mna mna(dump.circuit, dump.config);
    if (dump.x0.size() != mna.numUnknowns())
        fatal("diag dump: x0 has ", dump.x0.size(), " entries, circuit "
              "needs ", mna.numUnknowns());
    if (dump.dt > 0.0 && !dump.hasPrev)
        fatal("diag dump: transient replay requires x_prev");

    ReplayResult result;
    result.solution = dump.x0;
    result.converged = mna.solveNewton(
        result.solution, dump.time, dump.sourceScale, dump.dt,
        dump.hasPrev ? &dump.xPrev : nullptr, &result.trace);
    return result;
}

} // namespace otft::circuit::dump
