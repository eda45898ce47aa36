#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"

namespace otft {

LineFit
fitLine(std::span<const double> xs, std::span<const double> ys)
{
    if (xs.size() != ys.size())
        fatal("fitLine: size mismatch (", xs.size(), " vs ", ys.size(), ")");
    if (xs.size() < 2)
        fatal("fitLine: need at least two points, got ", xs.size());

    const double n = static_cast<double>(xs.size());
    double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0, syy = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        sx += xs[i];
        sy += ys[i];
        sxx += xs[i] * xs[i];
        sxy += xs[i] * ys[i];
        syy += ys[i] * ys[i];
    }

    const double denom = n * sxx - sx * sx;
    if (std::abs(denom) < 1e-300)
        fatal("fitLine: degenerate x values (all equal)");

    LineFit fit;
    fit.slope = (n * sxy - sx * sy) / denom;
    fit.intercept = (sy - fit.slope * sx) / n;

    const double ss_tot = syy - sy * sy / n;
    if (ss_tot <= 0.0) {
        fit.r2 = 1.0;
    } else {
        double ss_res = 0.0;
        for (std::size_t i = 0; i < xs.size(); ++i) {
            const double e = ys[i] - fit.eval(xs[i]);
            ss_res += e * e;
        }
        fit.r2 = 1.0 - ss_res / ss_tot;
    }
    return fit;
}

double
mean(std::span<const double> xs)
{
    if (xs.empty())
        fatal("mean: empty input");
    double s = 0.0;
    for (double x : xs)
        s += x;
    return s / static_cast<double>(xs.size());
}

double
normalCdf(double z)
{
    return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

double
normalQuantile(double p)
{
    if (!(p > 0.0 && p < 1.0))
        fatal("normalQuantile: p must lie in (0, 1), got ", p);

    // Acklam's rational approximation, three regimes.
    static const double a[] = {-3.969683028665376e+01,
                               2.209460984245205e+02,
                               -2.759285104469687e+02,
                               1.383577518672690e+02,
                               -3.066479806614716e+01,
                               2.506628277459239e+00};
    static const double b[] = {-5.447609879822406e+01,
                               1.615858368580409e+02,
                               -1.556989798598866e+02,
                               6.680131188771972e+01,
                               -1.328068155288572e+01};
    static const double c[] = {-7.784894002430293e-03,
                               -3.223964580411365e-01,
                               -2.400758277161838e+00,
                               -2.549732539343734e+00,
                               4.374664141464968e+00,
                               2.938163982698783e+00};
    static const double d[] = {7.784695709041462e-03,
                               3.224671290700398e-01,
                               2.445134137142996e+00,
                               3.754408661907416e+00};
    const double p_low = 0.02425;
    double x;
    if (p < p_low) {
        const double q = std::sqrt(-2.0 * std::log(p));
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) *
                 q +
             c[5]) /
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    } else if (p <= 1.0 - p_low) {
        const double q = p - 0.5;
        const double r = q * q;
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) *
                 r +
             a[5]) *
            q /
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) *
                 r +
             1.0);
    } else {
        const double q = std::sqrt(-2.0 * std::log(1.0 - p));
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q +
               c[4]) *
                  q +
              c[5]) /
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    }

    // One Halley refinement against the exact CDF.
    const double e = normalCdf(x) - p;
    const double u =
        e * std::sqrt(2.0 * M_PI) * std::exp(0.5 * x * x);
    x = x - u / (1.0 + 0.5 * x * u);
    return x;
}

double
interpolate(std::span<const double> xs, std::span<const double> ys, double x)
{
    if (xs.size() != ys.size() || xs.empty())
        fatal("interpolate: bad inputs");
    if (x <= xs.front())
        return ys.front();
    if (x >= xs.back())
        return ys.back();
    // Binary search for the bracketing segment.
    auto it = std::upper_bound(xs.begin(), xs.end(), x);
    const std::size_t hi = static_cast<std::size_t>(it - xs.begin());
    const std::size_t lo = hi - 1;
    const double t = (x - xs[lo]) / (xs[hi] - xs[lo]);
    return ys[lo] + t * (ys[hi] - ys[lo]);
}

std::vector<double>
findCrossings(std::span<const double> xs, std::span<const double> ys,
              double level)
{
    if (xs.size() != ys.size())
        fatal("findCrossings: size mismatch");
    std::vector<double> out;
    for (std::size_t i = 0; i + 1 < xs.size(); ++i) {
        const double a = ys[i] - level;
        const double b = ys[i + 1] - level;
        if (a == 0.0) {
            out.push_back(xs[i]);
        } else if (a * b < 0.0) {
            const double t = a / (a - b);
            out.push_back(xs[i] + t * (xs[i + 1] - xs[i]));
        }
    }
    if (!ys.empty() && ys.back() == level)
        out.push_back(xs.back());
    return out;
}

std::vector<double>
gradient(std::span<const double> xs, std::span<const double> ys)
{
    if (xs.size() != ys.size() || xs.size() < 2)
        fatal("gradient: need >= 2 samples");
    const std::size_t n = xs.size();
    std::vector<double> g(n);
    g[0] = (ys[1] - ys[0]) / (xs[1] - xs[0]);
    g[n - 1] = (ys[n - 1] - ys[n - 2]) / (xs[n - 1] - xs[n - 2]);
    for (std::size_t i = 1; i + 1 < n; ++i)
        g[i] = (ys[i + 1] - ys[i - 1]) / (xs[i + 1] - xs[i - 1]);
    return g;
}

std::vector<double>
linspace(double lo, double hi, std::size_t n)
{
    if (n < 2)
        fatal("linspace: need n >= 2, got ", n);
    std::vector<double> out(n);
    const double step = (hi - lo) / static_cast<double>(n - 1);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = lo + step * static_cast<double>(i);
    out.back() = hi;
    return out;
}

} // namespace otft
