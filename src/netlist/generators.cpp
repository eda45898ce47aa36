#include "netlist/generators.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace otft::netlist {

namespace {

void
checkSameWidth(const Bus &a, const Bus &y, const char *who)
{
    if (a.size() != y.size() || a.empty())
        fatal(who, ": operand width mismatch (", a.size(), " vs ",
              y.size(), ")");
}

/** Full adder: sum = a ^ y ^ c, carry = majority(a, y, c). */
struct FullAdder
{
    GateId sum;
    GateId carry;
};

FullAdder
fullAdder(NetBuilder &b, GateId a, GateId y, GateId c)
{
    return {b.xor3(a, y, c), b.majority(a, y, c)};
}

FullAdder
halfAdder(NetBuilder &b, GateId a, GateId y)
{
    return {b.xorGate(a, y), b.andGate(a, y)};
}

} // namespace

AdderResult
rippleCarryAdder(NetBuilder &b, const Bus &a, const Bus &y,
                 GateId carry_in)
{
    checkSameWidth(a, y, "rippleCarryAdder");
    AdderResult r;
    GateId carry = carry_in;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (carry == nullGate) {
            const FullAdder fa = halfAdder(b, a[i], y[i]);
            r.sum.push_back(fa.sum);
            carry = fa.carry;
        } else {
            const FullAdder fa = fullAdder(b, a[i], y[i], carry);
            r.sum.push_back(fa.sum);
            carry = fa.carry;
        }
    }
    r.carryOut = carry;
    return r;
}

AdderResult
koggeStoneAdder(NetBuilder &b, const Bus &a, const Bus &y,
                GateId carry_in)
{
    checkSameWidth(a, y, "koggeStoneAdder");
    const std::size_t n = a.size();

    // Generate/propagate preprocessing.
    Bus g(n), p(n);
    for (std::size_t i = 0; i < n; ++i) {
        g[i] = b.andGate(a[i], y[i]);
        p[i] = b.xorGate(a[i], y[i]);
    }
    if (carry_in != nullGate) {
        // Fold the carry-in into bit 0's generate: g0' = g0 + p0*cin.
        g[0] = b.orGate(g[0], b.andGate(p[0], carry_in));
    }

    // Parallel prefix: (g, p) o (g', p') = (g + p g', p p').
    Bus gg = g, pp = p;
    for (std::size_t dist = 1; dist < n; dist *= 2) {
        Bus g2 = gg, p2 = pp;
        for (std::size_t i = dist; i < n; ++i) {
            g2[i] = b.orGate(gg[i], b.andGate(pp[i], gg[i - dist]));
            p2[i] = b.andGate(pp[i], pp[i - dist]);
        }
        gg = std::move(g2);
        pp = std::move(p2);
    }

    // Sum: s_i = p_i ^ c_i where c_i = gg_{i-1} (carry into bit i).
    AdderResult r;
    r.sum.resize(n);
    r.sum[0] = carry_in == nullGate ? p[0] : b.xorGate(p[0], carry_in);
    for (std::size_t i = 1; i < n; ++i)
        r.sum[i] = b.xorGate(p[i], gg[i - 1]);
    r.carryOut = gg[n - 1];
    return r;
}

Bus
arrayMultiplier(NetBuilder &b, const Bus &a, const Bus &y)
{
    checkSameWidth(a, y, "arrayMultiplier");
    const std::size_t n = a.size();
    const GateId zero = b.constant(false);

    // Dadda-style column compression: gather every partial-product
    // bit into its weight column, then compress columns with full and
    // half adders until at most two bits remain per column.
    std::vector<Bus> cols(2 * n);
    for (std::size_t j = 0; j < n; ++j)
        for (std::size_t i = 0; i < n; ++i)
            cols[i + j].push_back(b.andGate(a[i], y[j]));

    bool busy = true;
    while (busy) {
        busy = false;
        std::vector<Bus> next(2 * n);
        for (std::size_t w = 0; w < 2 * n; ++w) {
            const Bus &col = cols[w];
            std::size_t i = 0;
            for (; i + 2 < col.size(); i += 3) {
                const FullAdder fa =
                    fullAdder(b, col[i], col[i + 1], col[i + 2]);
                next[w].push_back(fa.sum);
                if (w + 1 < 2 * n)
                    next[w + 1].push_back(fa.carry);
            }
            if (col.size() > 3 && i + 1 < col.size()) {
                const FullAdder ha = halfAdder(b, col[i], col[i + 1]);
                next[w].push_back(ha.sum);
                if (w + 1 < 2 * n)
                    next[w + 1].push_back(ha.carry);
                i += 2;
            }
            for (; i < col.size(); ++i)
                next[w].push_back(col[i]);
        }
        cols = std::move(next);
        for (const Bus &col : cols)
            if (col.size() > 2)
                busy = true;
    }

    // Final carry-propagate addition of the two remaining rows.
    Bus row0(2 * n, zero), row1(2 * n, zero);
    for (std::size_t w = 0; w < 2 * n; ++w) {
        if (!cols[w].empty())
            row0[w] = cols[w][0];
        if (cols[w].size() > 1)
            row1[w] = cols[w][1];
    }
    const AdderResult final_sum = koggeStoneAdder(b, row0, row1);
    return final_sum.sum;
}

DividerResult
nonRestoringDivider(NetBuilder &b, const Bus &dividend,
                    const Bus &divisor, int rows)
{
    checkSameWidth(dividend, divisor, "nonRestoringDivider");
    const std::size_t n = dividend.size();
    if (rows <= 0 || static_cast<std::size_t>(rows) > n)
        fatal("nonRestoringDivider: rows must be in [1, ", n, "]");

    const GateId zero = b.constant(false);

    // Partial remainder R (n+1 bits to hold the sign).
    Bus r(n + 1, zero);
    Bus quotient(static_cast<std::size_t>(rows), zero);

    // sign == 1 means R is negative -> next row adds instead of subs.
    GateId sign = zero;
    for (int row = 0; row < rows; ++row) {
        // Shift R left by one and bring in the next dividend bit.
        Bus shifted(n + 1);
        shifted[0] = dividend[n - 1 - static_cast<std::size_t>(row)];
        for (std::size_t i = 1; i <= n; ++i)
            shifted[i] = r[i - 1];

        // Controlled add/sub of the divisor: when sign == 0 subtract
        // (add two's complement), when sign == 1 add.
        const GateId sub = b.notGate(sign);
        Bus addend(n + 1);
        for (std::size_t i = 0; i < n; ++i)
            addend[i] = b.xorGate(divisor[i], sub);
        addend[n] = sub; // divisor sign extension (0) xor sub
        const AdderResult add = koggeStoneAdder(b, shifted, addend, sub);

        r = add.sum;
        sign = r[n]; // two's complement sign of the partial remainder
        quotient[static_cast<std::size_t>(rows - 1 - row)] =
            b.notGate(sign);
    }

    // Final restoration: if R negative, add back the divisor.
    Bus divisor_ext = divisor;
    divisor_ext.push_back(zero);
    Bus masked(n + 1);
    for (std::size_t i = 0; i <= n; ++i)
        masked[i] = b.andGate(divisor_ext[i], sign);
    const AdderResult fix = koggeStoneAdder(b, r, masked);

    DividerResult result;
    result.quotient = std::move(quotient);
    result.remainder.assign(fix.sum.begin(), fix.sum.begin() +
                            static_cast<std::ptrdiff_t>(n));
    return result;
}

Bus
barrelShifter(NetBuilder &b, const Bus &a, const Bus &amount, bool left)
{
    const GateId zero = b.constant(false);
    Bus cur = a;
    for (std::size_t s = 0; s < amount.size(); ++s) {
        const std::size_t dist = static_cast<std::size_t>(1) << s;
        Bus next(cur.size());
        for (std::size_t i = 0; i < cur.size(); ++i) {
            GateId shifted_in = zero;
            if (left) {
                if (i >= dist)
                    shifted_in = cur[i - dist];
            } else {
                if (i + dist < cur.size())
                    shifted_in = cur[i + dist];
            }
            next[i] = b.mux(amount[s], shifted_in, cur[i]);
        }
        cur = std::move(next);
    }
    return cur;
}

GateId
equalityComparator(NetBuilder &b, const Bus &a, const Bus &y)
{
    checkSameWidth(a, y, "equalityComparator");
    // Tree of XNORs ANDed together via NAND/NOR levels.
    Bus eq(a.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        eq[i] = b.xnorGate(a[i], y[i]);
    // Reduce with and3/and until a single signal remains.
    while (eq.size() > 1) {
        Bus next;
        std::size_t i = 0;
        for (; i + 2 < eq.size(); i += 3)
            next.push_back(b.and3(eq[i], eq[i + 1], eq[i + 2]));
        if (i + 1 < eq.size())
            next.push_back(b.andGate(eq[i], eq[i + 1]));
        else if (i < eq.size())
            next.push_back(eq[i]);
        eq = std::move(next);
    }
    return eq[0];
}

GateId
lessThan(NetBuilder &b, const Bus &a, const Bus &y)
{
    checkSameWidth(a, y, "lessThan");
    // a < y iff a - y borrows: compute a + ~y + 1 and invert carry.
    const AdderResult diff =
        koggeStoneAdder(b, a, busNot(b, y), b.constant(true));
    return b.notGate(diff.carryOut);
}

Bus
decoder(NetBuilder &b, const Bus &sel)
{
    const std::size_t n = sel.size();
    const std::size_t ways = static_cast<std::size_t>(1) << n;
    Bus nsel(n);
    for (std::size_t i = 0; i < n; ++i)
        nsel[i] = b.notGate(sel[i]);
    Bus out(ways);
    for (std::size_t w = 0; w < ways; ++w) {
        // AND of the n select literals, reduced in threes.
        Bus lits(n);
        for (std::size_t i = 0; i < n; ++i)
            lits[i] = (w >> i) & 1 ? sel[i] : nsel[i];
        while (lits.size() > 1) {
            Bus next;
            std::size_t i = 0;
            for (; i + 2 < lits.size(); i += 3)
                next.push_back(b.and3(lits[i], lits[i + 1], lits[i + 2]));
            if (i + 1 < lits.size())
                next.push_back(b.andGate(lits[i], lits[i + 1]));
            else if (i < lits.size())
                next.push_back(lits[i]);
            lits = std::move(next);
        }
        out[w] = lits[0];
    }
    return out;
}

Bus
onehotMux(NetBuilder &b, const std::vector<Bus> &ways, const Bus &onehot)
{
    if (ways.empty() || ways.size() != onehot.size())
        fatal("onehotMux: way/select mismatch");
    const std::size_t width = ways[0].size();
    Bus out(width);
    for (std::size_t bit = 0; bit < width; ++bit) {
        // OR of (way & grant) products == NOT(AND of their NANDs):
        // compute each NAND, AND-reduce in threes, invert at the end.
        Bus terms(ways.size());
        for (std::size_t w = 0; w < ways.size(); ++w)
            terms[w] = b.nand2(ways[w][bit], onehot[w]);
        while (terms.size() > 1) {
            Bus next;
            std::size_t i = 0;
            for (; i + 2 < terms.size(); i += 3)
                next.push_back(
                    b.and3(terms[i], terms[i + 1], terms[i + 2]));
            if (i + 1 < terms.size())
                next.push_back(b.andGate(terms[i], terms[i + 1]));
            else if (i < terms.size())
                next.push_back(terms[i]);
            terms = std::move(next);
        }
        out[bit] = b.notGate(terms[0]);
    }
    return out;
}

Bus
binaryMux(NetBuilder &b, const std::vector<Bus> &ways, const Bus &sel)
{
    if (ways.empty())
        fatal("binaryMux: no ways");
    // Recursive 2:1 mux tree over the select bits.
    std::vector<Bus> cur = ways;
    for (std::size_t s = 0; s < sel.size() && cur.size() > 1; ++s) {
        std::vector<Bus> next;
        for (std::size_t i = 0; i + 1 < cur.size(); i += 2) {
            Bus merged(cur[i].size());
            for (std::size_t bit = 0; bit < merged.size(); ++bit)
                merged[bit] = b.mux(sel[s], cur[i + 1][bit], cur[i][bit]);
            next.push_back(std::move(merged));
        }
        if (cur.size() % 2)
            next.push_back(cur.back());
        cur = std::move(next);
    }
    return cur[0];
}

Bus
prefixOr(NetBuilder &b, const Bus &in)
{
    Bus cur = in;
    for (std::size_t dist = 1; dist < in.size(); dist *= 2) {
        Bus next = cur;
        for (std::size_t i = dist; i < in.size(); ++i)
            next[i] = b.orGate(cur[i], cur[i - dist]);
        cur = std::move(next);
    }
    return cur;
}

Bus
prefixOrFast(NetBuilder &b, const Bus &in)
{
    // Invariant: at even levels `cur` holds the true-phase prefix so
    // far; at odd levels it holds the complement. NOR combines true
    // phases into a complement; NAND combines complements back into
    // true phase.
    Bus cur = in;
    bool complemented = false;
    for (std::size_t dist = 1; dist < in.size(); dist *= 2) {
        Bus next = cur;
        for (std::size_t i = 0; i < in.size(); ++i) {
            if (i >= dist) {
                next[i] = complemented
                              ? b.nand2(cur[i], cur[i - dist])
                              : b.nor2(cur[i], cur[i - dist]);
            } else {
                // Phase-fix passthrough.
                next[i] = b.notGate(cur[i]);
            }
        }
        cur = std::move(next);
        complemented = !complemented;
    }
    if (complemented)
        for (auto &g : cur)
            g = b.notGate(g);
    return cur;
}

Bus
prefixAnd(NetBuilder &b, const Bus &in)
{
    Bus cur = in;
    for (std::size_t dist = 1; dist < in.size(); dist *= 2) {
        Bus next = cur;
        for (std::size_t i = dist; i < in.size(); ++i)
            next[i] = b.andGate(cur[i], cur[i - dist]);
        cur = std::move(next);
    }
    return cur;
}

Bus
priorityArbiter(NetBuilder &b, const Bus &requests)
{
    const std::size_t n = requests.size();
    // grant_i = req_i AND NOT OR(req_0..i-1): exclusive prefix OR in
    // log depth.
    const Bus blocked = prefixOr(b, requests);
    Bus grant(n);
    grant[0] = requests[0];
    for (std::size_t i = 1; i < n; ++i)
        grant[i] = b.andGate(requests[i], b.notGate(blocked[i - 1]));
    return grant;
}

Bus
busAnd(NetBuilder &b, const Bus &a, const Bus &y)
{
    checkSameWidth(a, y, "busAnd");
    Bus out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        out[i] = b.andGate(a[i], y[i]);
    return out;
}

Bus
busOr(NetBuilder &b, const Bus &a, const Bus &y)
{
    checkSameWidth(a, y, "busOr");
    Bus out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        out[i] = b.orGate(a[i], y[i]);
    return out;
}

Bus
busXor(NetBuilder &b, const Bus &a, const Bus &y)
{
    checkSameWidth(a, y, "busXor");
    Bus out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        out[i] = b.xorGate(a[i], y[i]);
    return out;
}

Bus
busNot(NetBuilder &b, const Bus &a)
{
    Bus out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        out[i] = b.notGate(a[i]);
    return out;
}

} // namespace otft::netlist
