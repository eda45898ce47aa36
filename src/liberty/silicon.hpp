/**
 * @file
 * The reduced silicon standard cell library.
 *
 * The paper trims a TSMC 45 nm library down to the same six cells as
 * the organic library (Sec. 5.1). We cannot redistribute foundry
 * Liberty data, so this library is constructed from public 45 nm-class
 * figures via the logical-effort delay model: FO4 inverter delay
 * ~17 ps, logical efforts g = 1 (INV), 4/3 (NAND2), 5/3 (NAND3/NOR2),
 * 7/3 (NOR3), parasitic delays of 1-3 tau, femtofarad-scale pin
 * capacitances, and square-micron cell areas. Only the *relative*
 * gate-vs-wire delay and area ratios matter for the architectural
 * comparisons, and those are well represented by these constants.
 */

#ifndef OTFT_LIBERTY_SILICON_HPP
#define OTFT_LIBERTY_SILICON_HPP

#include "liberty/library.hpp"

namespace otft::liberty {

/** Tunable constants of the constructed 45 nm library. */
struct SiliconConfig
{
    /** Unit delay tau (FO1 inverter effort delay), seconds. */
    double tau = 3.4e-12;
    /** INV input capacitance, farads. */
    double invCap = 1.4e-15;
    /** Slew sensitivity: delay += slewFactor * input slew. */
    double slewFactor = 0.15;
    /** Output slew = slewGain * (intrinsic + load delay). */
    double slewGain = 1.8;
    /** DFF clk->Q delay, seconds. */
    double clkToQ = 55e-12;
    /** DFF setup time, seconds. */
    double setup = 55e-12;
    /** DFF hold time, seconds. */
    double hold = 5e-12;
    /**
     * Clock distribution uncertainty (skew + jitter) charged per
     * cycle, seconds. Synthesis-grade 45 nm flows budget hundreds of
     * picoseconds of clock uncertainty across a multi-millimeter
     * block; it is overwhelmingly a *wire* effect (RC skew of the
     * clock tree), which is why the no-wire analyses of Fig. 15
     * charge only a fifth of it (the jitter floor, see sta.cpp).
     */
    double clockMargin = 600e-12;
    /** Supply, volts. */
    double vdd = 1.1;
};

/** Build the reduced 6-cell silicon 45 nm library. */
CellLibrary makeSiliconLibrary(SiliconConfig config = {});

} // namespace otft::liberty

#endif // OTFT_LIBERTY_SILICON_HPP
