/// \file rng.cpp
/// Explicit instantiations of the templated samplers (one home for the
/// emitted code; headers stay cheap for downstream TUs) and the traced
/// bulk lattice fill.

#include "grid/simd.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "rng/engines.hpp"
#include "rng/gaussian.hpp"

namespace rrs {

template class BoxMullerGaussian<SplitMix64>;
template class BoxMullerGaussian<Pcg64>;
template class PolarGaussian<SplitMix64>;
template class PolarGaussian<Pcg64>;

void GaussianLattice::fill(const Rect& window, Array2D<double>& out) const {
    // One libm log + cos per point: clear any upper-YMM state a caller leaked
    // here, where the penalty is paid (see simd::clear_upper_state).
    simd::clear_upper_state();
    RRS_TRACE_SPAN("noise.fill");
    static obs::Counter& points =
        obs::MetricsRegistry::global().counter("noise.points");
    points.add(static_cast<std::uint64_t>(window.nx * window.ny));
    parallel_for(0, window.ny, [&](std::int64_t ty) {
        for (std::int64_t tx = 0; tx < window.nx; ++tx) {
            out(static_cast<std::size_t>(tx), static_cast<std::size_t>(ty)) =
                (*this)(window.x0 + tx, window.y0 + ty);
        }
    });
}

}  // namespace rrs
