#include "workload/trace.hpp"

#include <algorithm>

#include "util/logging.hpp"
#include "util/stats_registry.hpp"

namespace otft::workload {

const char *
toString(OpClass op)
{
    switch (op) {
      case OpClass::IntAlu:
        return "alu";
      case OpClass::IntMul:
        return "mul";
      case OpClass::IntDiv:
        return "div";
      case OpClass::Load:
        return "load";
      case OpClass::Store:
        return "store";
      case OpClass::Branch:
        return "branch";
    }
    return "?";
}

std::vector<BenchmarkProfile>
paperWorkloads()
{
    std::vector<BenchmarkProfile> v;

    // Values follow published SPEC CPU2000 characterizations
    // (instruction mixes, branch misprediction tendencies, and
    // working sets), scaled to the synthetic trace format.
    {
        BenchmarkProfile p;
        p.name = "bzip";
        p.branchFraction = 0.11;
        p.loadFraction = 0.24;
        p.storeFraction = 0.09;
        p.mulFraction = 0.008;
        p.divFraction = 0.0005;
        p.biasedBranchFraction = 0.55;
        p.loopBranchFraction = 0.28;
        p.randomBranchFraction = 0.17;
        p.depDistance = 5.0;
        p.workingSetBytes = 2ull << 20;
        p.streamingFraction = 0.60;
        v.push_back(p);
    }
    {
        BenchmarkProfile p;
        p.name = "gap";
        p.hotFraction = 0.85;
        p.branchFraction = 0.07;
        p.loadFraction = 0.28;
        p.storeFraction = 0.12;
        p.mulFraction = 0.015;
        p.divFraction = 0.001;
        p.biasedBranchFraction = 0.72;
        p.loopBranchFraction = 0.22;
        p.randomBranchFraction = 0.06;
        p.depDistance = 6.0;
        p.workingSetBytes = 4ull << 20;
        p.streamingFraction = 0.45;
        v.push_back(p);
    }
    {
        BenchmarkProfile p;
        p.name = "gzip";
        p.branchFraction = 0.10;
        p.loadFraction = 0.20;
        p.storeFraction = 0.08;
        p.mulFraction = 0.004;
        p.divFraction = 0.0003;
        p.biasedBranchFraction = 0.60;
        p.loopBranchFraction = 0.28;
        p.randomBranchFraction = 0.12;
        p.depDistance = 4.5;
        p.workingSetBytes = 512ull << 10;
        p.streamingFraction = 0.55;
        v.push_back(p);
    }
    {
        BenchmarkProfile p;
        p.name = "mcf";
        p.hotFraction = 0.45;
        p.hotBytes = 128 * 1024;
        p.branchFraction = 0.19;
        p.loadFraction = 0.31;
        p.storeFraction = 0.09;
        p.mulFraction = 0.002;
        p.divFraction = 0.0002;
        p.biasedBranchFraction = 0.50;
        p.loopBranchFraction = 0.30;
        p.randomBranchFraction = 0.20;
        p.depDistance = 3.5;
        p.pointerChaseFraction = 0.35;
        p.workingSetBytes = 16ull << 20;
        p.streamingFraction = 0.15;
        v.push_back(p);
    }
    {
        BenchmarkProfile p;
        p.name = "parser";
        p.hotFraction = 0.70;
        p.hotBytes = 64 * 1024;
        p.branchFraction = 0.16;
        p.loadFraction = 0.23;
        p.storeFraction = 0.09;
        p.mulFraction = 0.003;
        p.divFraction = 0.0003;
        p.biasedBranchFraction = 0.52;
        p.loopBranchFraction = 0.28;
        p.randomBranchFraction = 0.20;
        p.depDistance = 4.0;
        p.workingSetBytes = 8ull << 20;
        p.streamingFraction = 0.30;
        v.push_back(p);
    }
    {
        BenchmarkProfile p;
        p.name = "vortex";
        p.hotFraction = 0.80;
        p.hotBytes = 64 * 1024;
        p.branchFraction = 0.14;
        p.loadFraction = 0.27;
        p.storeFraction = 0.17;
        p.mulFraction = 0.002;
        p.divFraction = 0.0002;
        p.biasedBranchFraction = 0.75;
        p.loopBranchFraction = 0.18;
        p.randomBranchFraction = 0.07;
        p.depDistance = 6.0;
        p.workingSetBytes = 4ull << 20;
        p.streamingFraction = 0.40;
        v.push_back(p);
    }
    {
        BenchmarkProfile p;
        p.name = "dhrystone";
        p.hotFraction = 1.0;
        p.hotBytes = 16 * 1024;
        p.branchFraction = 0.17;
        p.loadFraction = 0.22;
        p.storeFraction = 0.12;
        p.mulFraction = 0.002;
        p.divFraction = 0.001;
        p.biasedBranchFraction = 0.80;
        p.loopBranchFraction = 0.15;
        p.randomBranchFraction = 0.05;
        p.depDistance = 5.0;
        p.workingSetBytes = 16ull << 10; // fits in L1
        p.streamingFraction = 0.50;
        v.push_back(p);
    }
    return v;
}

BenchmarkProfile
profileByName(const std::string &name)
{
    for (const auto &p : paperWorkloads())
        if (p.name == name)
            return p;
    fatal("workload: unknown benchmark ", name);
}

TraceGenerator::TraceGenerator(BenchmarkProfile profile,
                               std::uint64_t seed)
    : profile_(std::move(profile)), rng(seed)
{
    sites.resize(static_cast<std::size_t>(profile_.staticBranches));
    for (auto &site : sites) {
        const double u = rng.uniform();
        if (u < profile_.biasedBranchFraction) {
            site.kind = BranchSite::Kind::Biased;
            site.takenProb = rng.bernoulli(0.5) ? 0.95 : 0.05;
        } else if (u < profile_.biasedBranchFraction +
                           profile_.loopBranchFraction) {
            site.kind = BranchSite::Kind::Loop;
            site.tripCount = 2 + static_cast<int>(rng.uniformInt(30));
        } else {
            site.kind = BranchSite::Kind::Random;
            site.takenProb = 0.3 + 0.4 * rng.uniform();
        }
    }
    streamAddr = 0x10000;
}

bool
TraceGenerator::branchOutcome(std::size_t site_idx)
{
    BranchSite &site = sites[site_idx];
    switch (site.kind) {
      case BranchSite::Kind::Biased:
      case BranchSite::Kind::Random:
        return rng.bernoulli(site.takenProb);
      case BranchSite::Kind::Loop:
        // Taken tripCount-1 times, then fall through once.
        if (++site.loopPos >= site.tripCount) {
            site.loopPos = 0;
            return false;
        }
        return true;
    }
    return false;
}

std::uint64_t
TraceGenerator::nextAddress(bool &chased)
{
    chased = false;
    if (rng.bernoulli(profile_.streamingFraction)) {
        streamAddr += 8;
        if (streamAddr > 0x10000 + profile_.workingSetBytes)
            streamAddr = 0x10000;
        return streamAddr;
    }
    if (rng.bernoulli(profile_.pointerChaseFraction)) {
        chased = true;
    }
    if (rng.bernoulli(profile_.hotFraction))
        return 0x10000 + (rng.next() % profile_.hotBytes) / 8 * 8;
    return 0x10000 + (rng.next() % profile_.workingSetBytes) / 8 * 8;
}

TraceGenerator::~TraceGenerator()
{
    publishGenerated();
}

void
TraceGenerator::publishGenerated()
{
    static stats::Counter &stat_insts = stats::counter(
        "workload.instructions.generated",
        "synthetic trace instructions generated");
    stat_insts += generated;
    generated = 0;
}

TraceInst
TraceGenerator::next()
{
    ++generated;

    TraceInst inst;
    inst.pc = pc;
    pc += 4;

    auto pick_src = [&]() -> int {
        if (destWrites == 0)
            return static_cast<int>(1 + rng.uniformInt(numArchRegs - 1));
        const std::uint64_t back = std::min<std::uint64_t>(
            rng.geometric(profile_.depDistance),
            std::min<std::uint64_t>(destWrites, recentDestSlots));
        return recentDests[(destWrites - back) % recentDestSlots];
    };
    auto push_dest = [&](int reg) {
        recentDests[destWrites % recentDestSlots] = reg;
        ++destWrites;
    };
    auto fresh_reg = [&]() {
        return static_cast<int>(1 + rng.uniformInt(numArchRegs - 1));
    };

    const double u = rng.uniform();
    const double b = profile_.branchFraction;
    const double l = b + profile_.loadFraction;
    const double s = l + profile_.storeFraction;
    const double m = s + profile_.mulFraction;
    const double d = m + profile_.divFraction;

    if (u < b) {
        inst.op = OpClass::Branch;
        inst.src1 = pick_src();
        const std::size_t site = static_cast<std::size_t>(
            (inst.pc >> 2) % sites.size());
        inst.taken = branchOutcome(site);
        // Keep a small static footprint so the predictor sees
        // recurring sites: fold the pc.
        inst.pc = 0x1000 + site * 4;
        inst.target = inst.pc + (inst.taken ? 64 : 4);
        pc = inst.target;
    } else if (u < l) {
        inst.op = OpClass::Load;
        bool chased = false;
        inst.address = nextAddress(chased);
        inst.src1 = chased && lastLoadDest != noReg ? lastLoadDest
                                                    : pick_src();
        inst.dest = fresh_reg();
        push_dest(inst.dest);
        lastLoadDest = inst.dest;
    } else if (u < s) {
        inst.op = OpClass::Store;
        bool chased = false;
        inst.address = nextAddress(chased);
        inst.src1 = pick_src();
        inst.src2 = pick_src();
    } else if (u < m) {
        inst.op = OpClass::IntMul;
        inst.src1 = pick_src();
        inst.src2 = pick_src();
        inst.dest = fresh_reg();
        push_dest(inst.dest);
    } else if (u < d) {
        inst.op = OpClass::IntDiv;
        inst.src1 = pick_src();
        inst.src2 = pick_src();
        inst.dest = fresh_reg();
        push_dest(inst.dest);
    } else {
        inst.op = OpClass::IntAlu;
        inst.src1 = pick_src();
        if (rng.bernoulli(0.6))
            inst.src2 = pick_src();
        inst.dest = fresh_reg();
        push_dest(inst.dest);
    }
    return inst;
}

} // namespace otft::workload
