#include "liberty/library.hpp"

#include "util/logging.hpp"
#include "util/result_cache.hpp"

namespace otft::liberty {

const TimingArc &
StdCell::arc(int pin) const
{
    if (pin < 0 || static_cast<std::size_t>(pin) >= arcs.size())
        fatal("StdCell::arc: cell ", name, " has no arc for pin ", pin);
    return arcs[static_cast<std::size_t>(pin)];
}

void
CellLibrary::addCell(StdCell cell)
{
    if (cells.count(cell.name))
        fatal("CellLibrary: duplicate cell ", cell.name);
    // TimingArc::locate() serves all four tables of an arc.
    for (const TimingArc &arc : cell.arcs) {
        const NldmTable &ref = arc.delay[0];
        for (const NldmTable *t :
             {&arc.delay[1], &arc.outputSlew[0], &arc.outputSlew[1]})
            if (t->slewAxis() != ref.slewAxis() ||
                t->loadAxis() != ref.loadAxis())
                fatal("CellLibrary: cell ", cell.name, " arc ",
                      arc.fromPin, " has tables on different axes");
    }
    order.push_back(cell.name);
    cells.emplace(cell.name, std::move(cell));
}

const StdCell &
CellLibrary::cell(const std::string &name) const
{
    const auto it = cells.find(name);
    if (it == cells.end())
        fatal("CellLibrary ", name_, ": unknown cell ", name);
    return it->second;
}

bool
CellLibrary::hasCell(const std::string &name) const
{
    return cells.count(name) != 0;
}

std::uint64_t
CellLibrary::contentHash() const
{
    cache::KeyHasher h;
    h.add("cell-library-v1").add(name_).add(vdd_);
    h.add(wire_.resPerMeter).add(wire_.capPerMeter);
    h.add(wire_.lengthBase).add(wire_.lengthPerFanout);
    h.add(wire_.driverRes);
    h.add(defaultSlew_).add(clockMargin_);

    const auto add_table = [&](const NldmTable &t) {
        h.add(t.slewAxis()).add(t.loadAxis()).add(t.values());
    };
    for (const std::string &name : order) {
        const StdCell &c = cells.at(name);
        h.add(c.name).add(c.fanIn).add(c.isSequential);
        h.add(c.area).add(c.inputCap).add(c.leakage);
        h.add(c.flop.clkToQ).add(c.flop.setup).add(c.flop.hold);
        h.add(c.flop.clockPinCap);
        for (const TimingArc &arc : c.arcs) {
            h.add(arc.fromPin);
            for (int s = 0; s < 2; ++s) {
                add_table(arc.delay[s]);
                add_table(arc.outputSlew[s]);
            }
        }
    }
    return h.digest();
}

} // namespace otft::liberty
