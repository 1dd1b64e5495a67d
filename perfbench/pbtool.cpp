// pbtool — the benchmark's in-process half.  perfbench/run.py starts rrsd
// and calls one subcommand per phase; each prints one JSON object as its
// last stdout line.
//
//   pbtool scenes --scenes DIR --seed N --seconds S [--trace-out FILE]
//       Render the paper's §4 scenes in process through the library and
//       check them (zone statistics, sub-window bit identity, counters).
//   pbtool cold --workload cold_tiles|cold_windows --port P --pid PID
//               --scene FILE --seed N [--order M] --seconds S --conns C
//               [--trace 1 --dir DIR]
//       Request never-seen tiles or windows from a running rrsd and check
//       every response against InhomogeneousGenerator::generate_reference.
//       N is the scene's seed; M (default N) draws the request order.
//   pbtool fill --port P --scene FILE --out FILE
//       Generate the warm working set through a first rrsd and keep the
//       bodies it served, for the byte-identity checks of `warm`.
//   pbtool warm --port P --pid PID --scene FILE --fill FILE --seed N
//               [--order M] --seconds S --conns C [--trace 1 --dir DIR]
//       Request the stored working set from an rrsd restarted on its store;
//       M (default N) draws the request order.
//   pbtool selftest --scene FILE
//       Feed each check a corrupted output and require it to fail.
//
// Timings use std::chrono::steady_clock, which on Linux reads
// CLOCK_MONOTONIC — the clock run.py's time.monotonic() reads — so the
// set-up time can span the two processes.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <random>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "core/inhomogeneous.hpp"
#include "core/region_map.hpp"
#include "io/scene.hpp"
#include "net/client.hpp"
#include "net/http.hpp"
#include "net/tile_routes.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "service/tile_service.hpp"
#include "store/tile_store.hpp"

namespace {

using namespace rrs;

constexpr std::int64_t kTile = 256;
constexpr double kPi = 3.14159265358979323846;

double mono_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// ---------------------------------------------------------------- arguments

struct Args {
    std::map<std::string, std::string> kv;

    Args(int argc, char** argv, int first) {
        for (int i = first; i + 1 < argc; i += 2) {
            std::string k = argv[i];
            if (k.rfind("--", 0) != 0) {
                throw std::runtime_error("expected --option, got " + k);
            }
            kv[k.substr(2)] = argv[i + 1];
        }
    }
    std::string str(const std::string& k, const std::string& def = "") const {
        const auto it = kv.find(k);
        if (it == kv.end()) {
            if (def.empty()) {
                throw std::runtime_error("missing --" + k);
            }
            return def;
        }
        return it->second;
    }
    std::int64_t num(const std::string& k, std::int64_t def = -1) const {
        const auto it = kv.find(k);
        if (it == kv.end()) {
            if (def < 0) {
                throw std::runtime_error("missing --" + k);
            }
            return def;
        }
        return std::stoll(it->second);
    }
};

// --------------------------------------------------------------------- JSON

std::string jnum(double v) {
    if (!std::isfinite(v)) {
        return "null";
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string jstr(const std::string& s) { return "\"" + net::json_escape(s) + "\""; }

/// Flat JSON object builder; values are pre-rendered JSON.
class Json {
public:
    Json& put(const std::string& k, const std::string& rendered) {
        items_.emplace_back(k, rendered);
        return *this;
    }
    Json& num(const std::string& k, double v) { return put(k, jnum(v)); }
    std::string dump() const {
        std::string out = "{";
        for (std::size_t i = 0; i < items_.size(); ++i) {
            out += i ? "," : "";
            out += jstr(items_[i].first) + ":" + items_[i].second;
        }
        return out + "}";
    }

private:
    std::vector<std::pair<std::string, std::string>> items_;
};

std::string jarray(const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        out += i ? "," : "";
        out += jnum(v[i]);
    }
    return out + "]";
}

// ------------------------------------------------------------------- checks

/// Failed expectations of one run; the first few are kept as messages.
struct Checks {
    std::uint64_t passed = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> notes;

    bool expect(bool ok, const std::string& what) {
        if (ok) {
            ++passed;
        } else {
            ++failed;
            if (notes.size() < 16) {
                notes.push_back(what);
            }
        }
        return ok;
    }
    void put(Json& j) const {
        j.put("correct", failed == 0 && passed > 0 ? "true" : "false");
        j.num("checks_passed", static_cast<double>(passed));
        j.num("checks_failed", static_cast<double>(failed));
        std::string arr = "[";
        for (std::size_t i = 0; i < notes.size(); ++i) {
            arr += i ? "," : "";
            arr += jstr(notes[i]);
        }
        j.put("check_notes", arr + "]");
    }
};

std::string fmt(const char* f, double a, double b = 0.0, double c = 0.0) {
    char buf[256];
    std::snprintf(buf, sizeof buf, f, a, b, c);
    return buf;
}

// ------------------------------------------------------------ process stats

/// CPU seconds (user + system, all threads) of process `pid`.
double proc_cpu_s(long pid) {
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string line;
    std::getline(in, line);
    const std::size_t rp = line.rfind(')');
    if (rp == std::string::npos) {
        return 0.0;
    }
    std::istringstream rest(line.substr(rp + 2));
    std::string field;
    double ut = 0.0, st = 0.0;
    for (int i = 3; rest >> field; ++i) {  // field 3 is the state
        if (i == 14) {
            ut = std::stod(field);
        } else if (i == 15) {
            st = std::stod(field);
            break;
        }
    }
    return (ut + st) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// Peak resident set (VmHWM) of process `pid` in MiB.
double proc_peak_rss_mb(long pid) {
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;
        }
    }
    return 0.0;
}

/// Host-wide (steal, total) jiffies from /proc/stat.
std::pair<double, double> host_steal() {
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    double v = 0.0, total = 0.0, steal = 0.0;
    for (int i = 0; i < 8 && (in >> v); ++i) {
        total += v;
        if (i == 7) {
            steal = v;
        }
    }
    return {steal, total};
}

/// CPU seconds (user + system) of this process so far.
double self_cpu_s() {
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    const auto tv = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// The timed phase: wall clock, this process's CPU and the host's steal.
struct Window {
    double t0 = 0.0, t1 = 0.0, cpu0 = 0.0, cpu1 = 0.0;
    std::pair<double, double> steal0, steal1;
    void start() {
        steal0 = host_steal();
        cpu0 = self_cpu_s();
        t0 = mono_s();
    }
    void stop() {
        t1 = mono_s();
        cpu1 = self_cpu_s();
        steal1 = host_steal();
    }
    double seconds() const { return t1 - t0; }
    double self_cpu() const { return cpu1 - cpu0; }
    double steal_share() const {
        const double dt = steal1.second - steal0.second;
        return dt > 0 ? (steal1.first - steal0.first) / dt : 0.0;
    }
};

double quantile(std::vector<double> v, double q) {
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// ------------------------------------------------------------------- scenes

Scene load_scene(const std::string& path, std::optional<std::uint64_t> seed) {
    std::ifstream in(path);
    if (!in) {
        throw std::runtime_error("cannot open scene " + path);
    }
    Scene s = parse_scene(in);
    if (seed) {
        s.seed = *seed;
    }
    return s;
}

/// Order-dependent digest of a surface's bits (FNV-1a over 64-bit words).
std::uint64_t bits_digest(const Array2D<double>& a) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t y = 0; y < a.ny(); ++y) {
        for (std::size_t x = 0; x < a.nx(); ++x) {
            std::uint64_t w = 0;
            std::memcpy(&w, &a(x, y), sizeof w);
            h = (h ^ w) * 0x100000001b3ULL;
        }
    }
    return h;
}

bool separable_family(const RegionMap& map, std::size_t m) {
    return map.spectrum(m)->name().rfind("gaussian", 0) == 0;
}

/// What the map says about a lattice rectangle: the region that owns each
/// point outright (g_m == 1, else -1), whether any FFT-engine region has
/// weight there, and each region's bounding box of g_m > 0.
struct RectWeights {
    Rect rect;
    std::vector<int> label;
    std::vector<char> fft;
    std::vector<Rect> bbox;  // empty Rect = no support

    int at(std::int64_t x, std::int64_t y) const {
        return label[static_cast<std::size_t>((y - rect.y0) * rect.nx + (x - rect.x0))];
    }
};

RectWeights analyse(const InhomogeneousGenerator& gen, const Rect& r) {
    const RegionMap& map = gen.map();
    const std::size_t M = map.region_count();
    RectWeights w;
    w.rect = r;
    const auto n = static_cast<std::size_t>(r.nx * r.ny);
    w.label.assign(n, -1);
    w.fft.assign(n, 0);
    std::vector<char> sep(M);
    for (std::size_t m = 0; m < M; ++m) {
        sep[m] = separable_family(map, m) ? 1 : 0;
    }
    // Per-row support extents, reduced after the parallel pass.
    std::vector<std::int64_t> lo(static_cast<std::size_t>(r.ny) * M, r.nx);
    std::vector<std::int64_t> hi(static_cast<std::size_t>(r.ny) * M, -1);
    parallel_for(0, r.ny, [&](std::int64_t ty) {
        std::vector<double> g(M);
        const double y = gen.y_of(r.y0 + ty);
        for (std::int64_t tx = 0; tx < r.nx; ++tx) {
            map.weights_at(gen.x_of(r.x0 + tx), y, g);
            const auto p = static_cast<std::size_t>(ty * r.nx + tx);
            for (std::size_t m = 0; m < M; ++m) {
                if (g[m] > 0.0) {
                    const std::size_t k = static_cast<std::size_t>(ty) * M + m;
                    lo[k] = std::min(lo[k], tx);
                    hi[k] = std::max(hi[k], tx);
                    if (!sep[m]) {
                        w.fft[p] = 1;
                    }
                    if (g[m] == 1.0) {
                        w.label[p] = static_cast<int>(m);
                    }
                }
            }
        }
    });
    w.bbox.assign(M, Rect{0, 0, 0, 0});
    for (std::size_t m = 0; m < M; ++m) {
        std::int64_t x0 = r.nx, x1 = -1, y0 = r.ny, y1 = -1;
        for (std::int64_t ty = 0; ty < r.ny; ++ty) {
            const std::size_t k = static_cast<std::size_t>(ty) * M + m;
            if (hi[k] >= 0) {
                x0 = std::min(x0, lo[k]);
                x1 = std::max(x1, hi[k]);
                y0 = std::min(y0, ty);
                y1 = ty;
            }
        }
        if (x1 >= x0) {
            w.bbox[m] = Rect{r.x0 + x0, r.y0 + y0, x1 - x0 + 1, y1 - y0 + 1};
        }
    }
    return w;
}

/// Noise lattice points one InhomogeneousGenerator::generate(w.rect) draws:
/// each region with support convolves its bounding box, which needs the box
/// grown by the kernel's extent minus one along each axis.
std::uint64_t expected_noise_points(const InhomogeneousGenerator& gen, const RectWeights& w) {
    std::uint64_t total = 0;
    for (std::size_t m = 0; m < w.bbox.size(); ++m) {
        const Rect& b = w.bbox[m];
        if (b.nx == 0) {
            continue;
        }
        const ConvolutionKernel& k = gen.kernels()[m];
        total += static_cast<std::uint64_t>(b.nx + static_cast<std::int64_t>(k.nx()) - 1) *
                 static_cast<std::uint64_t>(b.ny + static_cast<std::int64_t>(k.ny()) - 1);
    }
    return total;
}

/// Correlation of `f` with itself shifted by (dx, dy), over point pairs that
/// both lie in zone `z` (`zone_of` maps a point's label to its zone).
double zone_correlation(const Array2D<double>& f, const RectWeights& w,
                        const std::vector<int>& zone_of, int z, double mean, std::int64_t dx,
                        std::int64_t dy) {
    const Rect& r = w.rect;
    double acc = 0.0;
    double n = 0.0;
    for (std::int64_t y = 0; y + dy < r.ny; ++y) {
        for (std::int64_t x = 0; x + dx < r.nx; ++x) {
            const auto p = static_cast<std::size_t>(y * r.nx + x);
            const auto q = static_cast<std::size_t>((y + dy) * r.nx + x + dx);
            const int lp = w.label[p];
            const int lq = w.label[q];
            if (lp >= 0 && lq >= 0 && zone_of[static_cast<std::size_t>(lp)] == z &&
                zone_of[static_cast<std::size_t>(lq)] == z) {
                acc += (f(static_cast<std::size_t>(x), static_cast<std::size_t>(y)) - mean) *
                       (f(static_cast<std::size_t>(x + dx), static_cast<std::size_t>(y + dy)) -
                        mean);
                n += 1.0;
            }
        }
    }
    return n > 0 ? acc / n : 0.0;
}

/// Per-zone moment and correlation-length checks.  A zone is every point
/// that a region of one spectrum owns outright, so the Voronoi cells of a
/// spectrum pool their cells (a pair of points straddling two of them lies
/// two transition half-widths apart, beyond every lag tested).  Tolerances
/// are five
/// standard errors for a field with `cells = points / ∫ρ` independent
/// cells: σ(mean) = h/√cells and σ(ŝ/h) ≤ ½·√(π cl²/points) (∫ρ² = π cl²/2
/// for both families), plus a small allowance for kernel truncation and the
/// lattice.  Returns the number of zones whose 1/e length was tested.
int check_zones(const std::string& scene_name, const Array2D<double>& f,
                const RectWeights& w, const RegionMap& map, Checks& checks) {
    int zones = 0;
    int length_tested = 0;
    // Zone of each region: the first region with the same spectrum.
    std::vector<int> zone_of(map.region_count());
    for (std::size_t r = 0; r < map.region_count(); ++r) {
        zone_of[r] = static_cast<int>(r);
        for (std::size_t q = 0; q < r; ++q) {
            if (map.spectrum(q) == map.spectrum(r)) {
                zone_of[r] = zone_of[q];
                break;
            }
        }
    }
    for (std::size_t mi = 0; mi < map.region_count(); ++mi) {
        const int m = static_cast<int>(mi);
        if (zone_of[mi] != m) {
            continue;  // pooled into an earlier region's zone
        }
        const SurfaceParams& p = map.spectrum(mi)->params();
        double n = 0.0, s1 = 0.0, s2 = 0.0;
        for (std::int64_t y = 0; y < w.rect.ny; ++y) {
            for (std::int64_t x = 0; x < w.rect.nx; ++x) {
                const int l = w.label[static_cast<std::size_t>(y * w.rect.nx + x)];
                if (l >= 0 && zone_of[static_cast<std::size_t>(l)] == m) {
                    const double v = f(static_cast<std::size_t>(x), static_cast<std::size_t>(y));
                    n += 1.0;
                    s1 += v;
                    s2 += v * v;
                }
            }
        }
        // Integral of the correlation over the plane: π cl² for the
        // Gaussian family, 2π cl² for the exponential one.
        const double cell = (separable_family(map, mi) ? 1.0 : 2.0) * kPi * p.clx * p.cly;
        if (n < 16.0 * cell) {
            continue;  // too few independent cells to say anything
        }
        ++zones;
        const double mean = s1 / n;
        const double sd = std::sqrt(std::max(0.0, s2 / n - mean * mean));
        const double se = std::sqrt(cell / n);
        const std::string tag = scene_name + " zone " + std::to_string(m);
        checks.expect(std::fabs(mean) <= 5.0 * p.h * se,
                      tag + fmt(" mean %.4g beyond %.3g", mean, 5.0 * p.h * se));
        const double tol_sd = 2.5 * se + 0.01;
        checks.expect(std::fabs(sd / p.h - 1.0) <= tol_sd,
                      tag + fmt(" sd %.4g vs h %.4g (tol %.3g)", sd, p.h, tol_sd));
        // 1/e length: first crossing of the normalised correlation, averaged
        // over the x and y axes, at lags spread over the tolerance band
        // [lo, hi].  Near ρ = 1/e a correlation error δ moves the crossing
        // by δ·e/2 (Gaussian) or δ·e (exponential) of cl, and δ has the size
        // of `se`; a 5% allowance covers the bias of removing the zone's own
        // mean.  The crossing must lie inside the band: ρ must still exceed
        // 1/e at the first lag (≥ lo) and reach it by the last (≤ hi).  A
        // zone whose band reaches below lag 1 has too few cells to bound the
        // length from below and is not length-tested.
        const bool gaussian = separable_family(map, mi);
        const double tol_cl = 5.0 * (gaussian ? 0.5 : 1.0) * std::exp(1.0) * se + 0.05;
        const double cl = std::sqrt(p.clx * p.cly);
        const double lo = (1.0 - tol_cl) * cl;
        const double hi = (1.0 + tol_cl) * cl;
        if (lo < 1.0) {
            continue;
        }
        ++length_tested;
        const double var = sd * sd;
        const double first = std::ceil(lo);
        const double last = std::floor(hi);
        double prev_lag = 0.0, prev_rho = 0.0, cl_est = -1.0;
        std::string why = "no crossing by lag " + jnum(last);
        for (int k = 0; k <= 12; ++k) {
            const double lag = first + std::round((last - first) * k / 12.0);
            const auto l = static_cast<std::int64_t>(lag);
            const double rho = 0.5 *
                               (zone_correlation(f, w, zone_of, m, mean, l, 0) +
                                zone_correlation(f, w, zone_of, m, mean, 0, l)) /
                               var;
            if (rho <= std::exp(-1.0)) {
                if (k == 0) {
                    why = "crossing below lag " + jnum(lag);
                } else {
                    cl_est = prev_lag + (prev_rho - std::exp(-1.0)) / (prev_rho - rho) *
                                            (lag - prev_lag);
                }
                break;
            }
            prev_lag = lag;
            prev_rho = rho;
        }
        checks.expect(cl_est > 0,
                      tag + fmt(" 1/e length outside [%.4g, %.4g] for cl %.4g: ", lo, hi, cl) + why);
    }
    checks.expect(zones >= 2, scene_name + ": fewer than two homogeneous zones checked");
    return length_tested;
}

/// Counter deltas between two registry snapshots (or /metrics documents).
using Counters = std::map<std::string, double>;

Counters registry_counters() {
    Counters out;
    for (const auto& [k, v] : obs::MetricsRegistry::global().snapshot().counters) {
        out[k] = static_cast<double>(v);
    }
    return out;
}

double delta(const Counters& a, const Counters& b, const std::string& k) {
    const auto ia = a.find(k);
    const auto ib = b.find(k);
    return (ib == b.end() ? 0.0 : ib->second) - (ia == a.end() ? 0.0 : ia->second);
}

std::string counters_json(const Counters& a, const Counters& b) {
    Json j;
    for (const auto& [k, v] : b) {
        j.num(k, v - (a.count(k) ? a.at(k) : 0.0));
    }
    return j.dump();
}

/// A region-map decorator that counts weights_at calls.
class CountingMap final : public RegionMap {
public:
    explicit CountingMap(RegionMapPtr inner)
        : RegionMap(inner->spectra()), inner_(std::move(inner)) {}
    void weights_at(double x, double y, std::span<double> g) const override {
        evals_.fetch_add(1, std::memory_order_relaxed);
        inner_->weights_at(x, y, g);
    }
    std::uint64_t evals() const { return evals_.load(); }

private:
    RegionMapPtr inner_;
    mutable std::atomic<std::uint64_t> evals_{0};
};

/// weights_at evaluations per generated point over `rects` of `scene`.
std::pair<double, double> count_weight_evals(const Scene& scene, const std::vector<Rect>& rects) {
    auto counting = std::make_shared<CountingMap>(scene.map);
    Scene s = scene;
    s.map = counting;
    const InhomogeneousGenerator gen = make_scene_generator(s);
    double points = 0.0;
    for (const Rect& r : rects) {
        (void)gen.generate(r);
        points += static_cast<double>(r.nx * r.ny);
    }
    return {static_cast<double>(counting->evals()), points};
}

int cmd_scenes(const Args& a) {
    const std::string dir = a.str("scenes");
    const auto seed = static_cast<std::uint64_t>(a.num("seed"));
    const double seconds = static_cast<double>(a.num("seconds"));
    const std::string trace_out = a.str("trace-out", "-");
    if (trace_out != "-") {
        obs::trace_enable();
    }
    const std::vector<std::string> names = {"fig1_quadrants", "fig3_pond", "fig4_points"};
    std::vector<Scene> scenes;
    std::vector<InhomogeneousGenerator> gens;
    for (std::size_t i = 0; i < names.size(); ++i) {
        scenes.push_back(load_scene(dir + "/" + names[i] + ".rrs", seed * 7919 + i + 1));
        gens.push_back(make_scene_generator(scenes.back()));
    }
    const double setup_done = mono_s();

    // Noise each full render must draw, from the scene's geometry; computed
    // before the timed phase, which then holds no buffer of the benchmark's
    // own, so the peak RSS is the renderer's.
    std::vector<std::uint64_t> render_noise;
    for (std::size_t i = 0; i < names.size(); ++i) {
        render_noise.push_back(expected_noise_points(gens[i], analyse(gens[i], scenes[i].region)));
    }

    const Counters c0 = registry_counters();
    Window win;
    win.start();
    std::vector<double> lat_ms;
    std::vector<std::uint64_t> digest(names.size());
    double points = 0.0;
    std::uint64_t expect_noise = 0;
    const double deadline = win.t0 + seconds;
    do {
        // A fixed order: which scene ran before shapes the heap a render
        // starts from, and with it both its time and the peak RSS.  Each
        // output is dropped after its digest is taken.
        for (std::size_t i = 0; i < names.size(); ++i) {
            const double t0 = mono_s();
            const Array2D<double> out = gens[i].generate(scenes[i].region);
            lat_ms.push_back((mono_s() - t0) * 1e3);
            digest[i] = bits_digest(out);
            points += static_cast<double>(scenes[i].region.nx * scenes[i].region.ny);
            expect_noise += render_noise[i];
        }
    } while (mono_s() < deadline);
    win.stop();
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    const Counters c1 = registry_counters();
    const double cpu_s = win.self_cpu();
    const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    if (trace_out != "-") {
        obs::trace_disable();
        std::ofstream tf(trace_out);
        obs::write_chrome_trace(tf);
    }

    Checks checks;
    checks.expect(delta(c0, c1, "inhom.points") == points,
                  fmt("inhom.points delta %.0f != points rendered %.0f",
                      delta(c0, c1, "inhom.points"), points));
    checks.expect(delta(c0, c1, "noise.points") == static_cast<double>(expect_noise),
                  fmt("noise.points delta %.0f != kernel-extent noise rects %.0f",
                      delta(c0, c1, "noise.points"), static_cast<double>(expect_noise)));
    std::mt19937_64 rng(seed);
    for (std::size_t i = 0; i < names.size(); ++i) {
        // The checks read a fresh render, which must be the timed one bit
        // for bit.
        const Array2D<double> full = gens[i].generate(scenes[i].region);
        checks.expect(bits_digest(full) == digest[i],
                      names[i] + ": a second render differs from the timed one");
        const RectWeights geo = analyse(gens[i], scenes[i].region);
        checks.expect(check_zones(names[i], full, geo, gens[i].map(), checks) >= 1,
                      names[i] + ": no zone held enough cells for a 1/e length test");
        // A 256² sub-window rendered alone must equal the same pixels of the
        // full render bit for bit.  The FFT engine pads each rectangle to its
        // own power of two, so only windows the FFT-engine regions do not
        // reach are held to bit identity.
        const Rect& r = scenes[i].region;
        // Summed-area table of the FFT-reach mask: a candidate is clean when
        // its sum is zero.
        const auto W = static_cast<std::size_t>(r.nx) + 1;
        std::vector<std::uint32_t> sat(W * (static_cast<std::size_t>(r.ny) + 1), 0);
        for (std::size_t y = 0; y < static_cast<std::size_t>(r.ny); ++y) {
            for (std::size_t x = 0; x < static_cast<std::size_t>(r.nx); ++x) {
                const auto reach = static_cast<std::uint32_t>(geo.fft[y * (W - 1) + x]);
                sat[(y + 1) * W + x + 1] =
                    reach + sat[y * W + x + 1] + sat[(y + 1) * W + x] - sat[y * W + x];
            }
        }
        std::vector<Rect> cands;
        const std::int64_t side = kTile - 8;
        for (std::int64_t y = 5; y + side <= r.ny; y += 32) {
            for (std::int64_t x = 3; x + side <= r.nx; x += 32) {
                const auto at = [&](std::int64_t xx, std::int64_t yy) {
                    return sat[static_cast<std::size_t>(yy) * W + static_cast<std::size_t>(xx)];
                };
                if (at(x + side, y + side) + at(x, y) == at(x, y + side) + at(x + side, y)) {
                    cands.push_back(Rect{r.x0 + x, r.y0 + y, side, side});
                }
            }
        }
        if (!checks.expect(!cands.empty(), names[i] + ": no separable-only sub-window")) {
            continue;
        }
        const Rect sub = cands[rng() % cands.size()];
        const Array2D<double> alone = gens[i].generate(sub);
        bool same = true;
        for (std::int64_t y = 0; y < sub.ny && same; ++y) {
            for (std::int64_t x = 0; x < sub.nx && same; ++x) {
                const double u = alone(static_cast<std::size_t>(x), static_cast<std::size_t>(y));
                const double v = full(static_cast<std::size_t>(sub.x0 - r.x0 + x),
                                      static_cast<std::size_t>(sub.y0 - r.y0 + y));
                same = std::memcmp(&u, &v, sizeof u) == 0;
            }
        }
        checks.expect(same, names[i] + ": sub-window differs from the full render");
    }

    Json j;
    checks.put(j);
    j.num("attempted", static_cast<double>(lat_ms.size()));
    j.num("failed", 0);
    j.num("setup_done_mono", setup_done);
    j.num("seconds", win.seconds());
    j.num("points", points);
    j.num("cpu_s", cpu_s);
    j.num("peak_rss_mb", peak_rss_mb);
    j.num("steal_share", win.steal_share());
    j.put("latency_ms", jarray(lat_ms));
    j.put("counters", counters_json(c0, c1));
    if (trace_out != "-") {
        std::vector<Rect> rects;
        double evals = 0.0, pts = 0.0;
        for (const Scene& s : scenes) {
            const auto [e, p] = count_weight_evals(
                s, {Rect{s.region.x0 + 704, s.region.y0 + 704, kTile, kTile}});
            evals += e;
            pts += p;
        }
        Json r;
        r.num("core.weights_evals_per_point", evals / pts);
        j.put("replay", r.dump());
    }
    std::cout << j.dump() << std::endl;
    return 0;
}

// --------------------------------------------------------------- HTTP load

/// Counters from a /metrics document: {"counters":{"name":N,...},...}.
Counters parse_metrics(const std::string& body) {
    Counters out;
    const std::size_t at = body.find("\"counters\":{");
    if (at == std::string::npos) {
        throw std::runtime_error("no counters in /metrics");
    }
    std::size_t p = at + 12;
    while (p < body.size() && body[p] != '}') {
        const std::size_t k0 = body.find('"', p);
        const std::size_t k1 = body.find('"', k0 + 1);
        const std::string key = body.substr(k0 + 1, k1 - k0 - 1);
        char* end = nullptr;
        out[key] = std::strtod(body.c_str() + k1 + 2, &end);
        p = static_cast<std::size_t>(end - body.c_str());
        if (body[p] == ',') {
            ++p;
        }
    }
    return out;
}

net::HttpClient make_client(long port) {
    net::HttpClient::Options o;
    o.timeout_ms = 120000;
    return net::HttpClient("127.0.0.1", static_cast<std::uint16_t>(port), o);
}

Counters fetch_counters(net::HttpClient& c) {
    // The readiness probe's connection may still hold rrsd's admission slot
    // for a moment after it closed; that answers 503 and closes, so retry.
    for (int attempt = 0;; ++attempt) {
        const net::ClientResponse r = c.get("/metrics");
        if (r.status == 200) {
            return parse_metrics(r.body);
        }
        if (r.status != 503 || attempt == 100) {
            throw std::runtime_error("/metrics answered " + std::to_string(r.status));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
}

float body_f32(const std::string& body, std::size_t i) {
    float v = 0.0F;
    std::memcpy(&v, body.data() + i * sizeof v, sizeof v);
    return v;
}

/// One served value to compare with generate_reference.
struct Sample {
    std::int64_t x = 0, y = 0;
    float served = 0.0F;
};

/// 2×2 rects centred on lattice corners; each served sample lies in one.
struct SampleSet {
    std::vector<Sample> samples;
    std::vector<std::pair<std::int64_t, std::int64_t>> corners;  // rect origins

    /// Record the pixels of `op` (served as `body`) in the 2×2 rect whose
    /// lower-right pixel is (cx, cy).
    void take(const Rect& op, const std::string& body, std::int64_t cx, std::int64_t cy) {
        corners.emplace_back(cx - 1, cy - 1);
        for (std::int64_t y = cy - 1; y <= cy; ++y) {
            for (std::int64_t x = cx - 1; x <= cx; ++x) {
                if (x >= op.x0 && x < op.x1() && y >= op.y0 && y < op.y1()) {
                    const auto i = static_cast<std::size_t>((y - op.y0) * op.nx + (x - op.x0));
                    samples.push_back({x, y, body_f32(body, i)});
                }
            }
        }
    }
};

/// Compare every sample with the literal eq. 36/46 sum.
void check_samples(const InhomogeneousGenerator& gen, SampleSet& set, Checks& checks) {
    std::sort(set.corners.begin(), set.corners.end());
    set.corners.erase(std::unique(set.corners.begin(), set.corners.end()), set.corners.end());
    std::map<std::pair<std::int64_t, std::int64_t>, double> ref;
    for (const auto& [x0, y0] : set.corners) {
        const Array2D<double> r = gen.generate_reference(Rect{x0, y0, 2, 2});
        for (std::int64_t dy = 0; dy < 2; ++dy) {
            for (std::int64_t dx = 0; dx < 2; ++dx) {
                ref[{x0 + dx, y0 + dy}] =
                    r(static_cast<std::size_t>(dx), static_cast<std::size_t>(dy));
            }
        }
    }
    std::uint64_t bad = 0;
    std::string first;
    for (const Sample& s : set.samples) {
        const double want = ref.at({s.x, s.y});
        // f32 rounding of the served value plus the FFT engine's roundoff.
        const double tol = std::ldexp(std::fabs(want), -23) + 1e-9;
        if (!(std::fabs(static_cast<double>(s.served) - want) <= tol)) {
            if (bad++ == 0) {
                first = "served " + jnum(s.served) + " vs reference " + jnum(want) + " at (" +
                        std::to_string(s.x) + "," + std::to_string(s.y) + ")";
            }
        }
    }
    checks.expect(!set.samples.empty(), "no samples taken");
    checks.expect(bad == 0, std::to_string(bad) + " of " + std::to_string(set.samples.size()) +
                                " samples differ from generate_reference; first: " + first);
}

/// Count, sum and sum of squares of an f32 body.
struct Sums {
    double n = 0, s1 = 0, s2 = 0;
};

Sums body_sums(const std::string& body) {
    Sums s;
    const std::size_t count = body.size() / sizeof(float);
    for (std::size_t i = 0; i < count; ++i) {
        const double v = body_f32(body, i);
        s.s1 += v;
        s.s2 += v * v;
    }
    s.n = static_cast<double>(count);
    return s;
}

/// Pool every response wholly inside one zone and check mean ≈ 0, σ ≈ h.
struct Pool {
    double n = 0, s1 = 0, s2 = 0;
    std::uint64_t pieces = 0;
    void add(const Sums& s) {
        n += s.n;
        s1 += s.s1;
        s2 += s.s2;
        ++pieces;
    }
    void check(const std::string& what, const SurfaceParams& p, Checks& checks) const {
        if (!checks.expect(pieces > 0, what + ": no response lies wholly in the zone")) {
            return;
        }
        const double mean = s1 / n;
        const double sd = std::sqrt(std::max(0.0, s2 / n - mean * mean));
        // Pieces are separate realisations of the field, so independent
        // cells add up across them.
        const double se = std::sqrt(kPi * p.clx * p.cly / n);
        checks.expect(std::fabs(mean) <= 5.0 * p.h * se,
                      what + fmt(" pooled mean %.4g beyond %.3g", mean, 5.0 * p.h * se));
        checks.expect(std::fabs(sd / p.h - 1.0) <= 2.5 * se + 0.01,
                      what + fmt(" pooled sd %.4g vs h %.4g", sd, p.h));
    }
};

/// The service's accounting identities over a counter delta.
void check_identities(const Counters& c0, const Counters& c1, Checks& checks) {
    const double req = delta(c0, c1, "service.tile.requests");
    const double hits = delta(c0, c1, "service.tile.hits");
    const double miss = delta(c0, c1, "service.tile.misses");
    checks.expect(req == hits + miss, fmt("service requests %.0f != hits %.0f + misses %.0f",
                                          req, hits, miss));
    const double filled = delta(c0, c1, "service.tile.generations") +
                          delta(c0, c1, "service.tile.coalesced") +
                          delta(c0, c1, "store.l2.promotions") +
                          delta(c0, c1, "service.tile.remote_fills");
    checks.expect(filled == miss, fmt("generations+coalesced+promotions+fills %.0f != misses %.0f",
                                      filled, miss));
}

/// Runs `ops` (grouped into rounds) on `conns` keep-alive connections until
/// the deadline passes at a round boundary.  `fn(client, op index)` returns
/// false when the operation failed.
template <typename Fn>
void drive(std::vector<net::HttpClient>& clients, const std::vector<int>& round_of,
           double deadline, Fn fn) {
    std::mutex mu;
    std::size_t next = 0;
    std::size_t stop_at = round_of.size();
    auto take = [&]() -> std::optional<std::size_t> {
        std::lock_guard lock(mu);
        if (next >= stop_at) {
            return std::nullopt;
        }
        if (next > 0 && round_of[next] != round_of[next - 1] && mono_s() >= deadline) {
            stop_at = next;
            return std::nullopt;
        }
        return next++;
    };
    std::vector<std::thread> threads;
    for (auto& c : clients) {
        threads.emplace_back([&, cp = &c] {
            while (const auto i = take()) {
                fn(*cp, *i);
            }
        });
    }
    for (auto& t : threads) {
        t.join();
    }
}

/// One timed request outcome.
struct Outcome {
    double ms = 0.0;
    bool ok = false;
    double points = 0.0;
    std::string note;
};

std::string tile_target(const TileKey& k, const char* q = nullptr) {
    std::string t = "/v1/tile?tx=" + std::to_string(k.tx) + "&ty=" + std::to_string(k.ty);
    return q ? t + "&q=" + q : t;
}

std::string window_target(const Rect& r) {
    return "/v1/window?x0=" + std::to_string(r.x0) + "&y0=" + std::to_string(r.y0) +
           "&nx=" + std::to_string(r.nx) + "&ny=" + std::to_string(r.ny);
}

/// Median /healthz round trip in µs over one connection.
double healthz_rtt_us(net::HttpClient& c) {
    std::vector<double> v;
    for (int i = 0; i < 64; ++i) {
        const double t0 = mono_s();
        (void)c.get("/healthz");
        v.push_back((mono_s() - t0) * 1e6);
    }
    return quantile(v, 0.5);
}

/// Summary common to the load subcommands.
void put_load(Json& j, const std::vector<Outcome>& out, const Window& win, long pid,
              double cpu0, double cpu1, const Counters& c0, const Counters& c1) {
    std::vector<double> lat;
    double points = 0.0;
    std::uint64_t failed = 0;
    for (const Outcome& o : out) {
        lat.push_back(o.ms);
        points += o.points;
        failed += o.ok ? 0 : 1;
    }
    j.num("attempted", static_cast<double>(out.size()));
    j.num("failed", static_cast<double>(failed));
    j.num("seconds", win.seconds());
    j.num("points", points);
    j.num("cpu_s", cpu1 - cpu0);
    j.num("peak_rss_mb", proc_peak_rss_mb(pid));
    j.num("steal_share", win.steal_share());
    j.num("client_cpu_s", win.self_cpu());
    j.put("latency_ms", jarray(lat));
    j.put("counters", counters_json(c0, c1));
}

// ------------------------------------------------------------------ replays

/// What a server workload's timed phase does, for its replay.
struct ReplayPlan {
    std::vector<TileKey> keys;  ///< tiles the workload requested, in order
    bool cold = true;           ///< tiles are generated, looked up in vain and written through
    bool window = false;        ///< the keys were requested as one window
    bool i16 = false;           ///< some requests ask for q=i16
};

/// The layers the servers' own spans do not split out, replayed in process
/// on the workload's scene and its own tiles, each public call wrapped in a
/// span of the benchmark's own.  A call the workload's timed phase never
/// makes reads 0.  Returns a JSON object of per-layer figures.
std::string replay(const std::string& scene_path, std::uint64_t seed, const std::string& dir,
                   const ReplayPlan& plan) {
    const Scene scene = load_scene(scene_path, seed);
    obs::trace_reset();
    obs::trace_enable();
    const InhomogeneousGenerator gen = make_scene_generator(scene);  // scene/kernel build spans
    obs::trace_disable();
    double kernel_ms = 0.0, scene_ms = 0.0;
    for (const obs::TraceEvent& e : obs::trace_events()) {
        const double ms = static_cast<double>(e.t1_ns - e.t0_ns) * 1e-6;
        const std::string n = e.name;
        if (n == "kernel.build" || n == "kernel.truncate") {
            kernel_ms += ms;
        } else if (n == "scene.build") {
            scene_ms += ms;
        }
    }
    Json j;
    j.num("core.kernel_build_ms", kernel_ms);
    j.num("io.scene_build_ms", scene_ms);

    const TileShape shape{kTile, kTile};
    std::vector<Rect> rects;
    for (const TileKey& k : plan.keys) {
        rects.push_back(tile_rect(shape, k));
    }
    if (plan.cold) {
        const auto [evals, pts] = count_weight_evals(scene, rects);
        j.num("core.weights_evals_per_point", evals / pts);
    } else {
        j.num("core.weights_evals_per_point", 0.0);
    }
    std::vector<Array2D<double>> tiles;
    for (const Rect& r : rects) {
        tiles.push_back(gen.generate(r));
    }
    const std::uint64_t fp = detail::generator_fingerprint(gen);
    const std::string path = dir + "/replay.rrsstore";
    std::remove(path.c_str());

    obs::trace_reset();
    obs::trace_enable();
    {
        // A cold workload looks every tile up in vain, then writes it
        // through; a warm one finds what an earlier daemon stored.
        store::TileStore st(path);
        for (const TileKey& k : plan.keys) {
            RRS_TRACE_SPAN("bench.store.find");
            (void)st.find(TileAddress{fp, k});
        }
        for (std::size_t i = 0; i < plan.keys.size(); ++i) {
            RRS_TRACE_SPAN("bench.store.insert");
            st.insert(TileAddress{fp, plan.keys[i]}, tiles[i]);
        }
        st.flush();
    }
    std::shared_ptr<store::TileStore> st;
    {
        RRS_TRACE_SPAN("bench.store.open");
        st = std::make_shared<store::TileStore>(path);
    }
    if (!plan.cold) {
        for (int rep = 0; rep < 4; ++rep) {
            for (const TileKey& k : plan.keys) {
                RRS_TRACE_SPAN("bench.store.warm_find");
                (void)st->find(TileAddress{fp, k});
            }
        }
    }
    // A service promoting from that store: every get() after the first pass
    // is a RAM-cache hit; window() then stitches from warm tiles.
    TileService::Options opt;
    opt.shape = shape;
    opt.store = st;
    ThreadPool pool(3);
    opt.pool = &pool;
    TileService svc(gen, opt);
    for (const TileKey& k : plan.keys) {
        (void)svc.get(k);
    }
    for (int rep = 0; rep < (plan.cold ? 0 : 32); ++rep) {
        for (const TileKey& k : plan.keys) {
            RRS_TRACE_SPAN("bench.service.get");
            (void)svc.get(k);
        }
    }
    if (plan.window) {
        Rect box = rects.front();
        for (const Rect& r : rects) {
            const std::int64_t x1 = std::max(box.x1(), r.x1());
            const std::int64_t y1 = std::max(box.y1(), r.y1());
            box.x0 = std::min(box.x0, r.x0);
            box.y0 = std::min(box.y0, r.y0);
            box.nx = x1 - box.x0;
            box.ny = y1 - box.y0;
        }
        for (int rep = 0; rep < 8; ++rep) {
            RRS_TRACE_SPAN("bench.service.window");
            (void)svc.window(box);
        }
    }
    for (int rep = 0; rep < 4; ++rep) {
        for (const Array2D<double>& t : tiles) {
            {
                RRS_TRACE_SPAN("bench.encode.f32");
                (void)net::encode_tile_f32(t);
            }
            if (plan.i16) {
                RRS_TRACE_SPAN("bench.encode.i16");
                (void)net::encode_tile_i16(t);
            }
        }
    }
    obs::trace_disable();
    std::map<std::string, std::vector<double>> us;
    for (const obs::TraceEvent& e : obs::trace_events()) {
        us[e.name].push_back(static_cast<double>(e.t1_ns - e.t0_ns) * 1e-3);
    }
    obs::trace_reset();
    std::remove(path.c_str());
    // Medians; a span never recorded reads 0.
    j.num("store.insert_ms_per_tile",
          plan.cold ? quantile(us["bench.store.insert"], 0.5) * 1e-3 : 0.0);
    j.num("store.open_ms", quantile(us["bench.store.open"], 0.5) * 1e-3);
    j.num("store.find_us_per_tile",
          quantile(us[plan.cold ? "bench.store.find" : "bench.store.warm_find"], 0.5));
    j.num("service.get_hit_us", quantile(us["bench.service.get"], 0.5));
    j.num("service.window_stitch_ms", quantile(us["bench.service.window"], 0.5) * 1e-3);
    j.num("net.encode_f32_us", quantile(us["bench.encode.f32"], 0.5));
    j.num("net.encode_i16_us", quantile(us["bench.encode.i16"], 0.5));
    return j.dump();
}

// ------------------------------------------------------------------- cold

struct ColdOp {
    Rect rect;
    bool tile = true;
    TileKey key;
};

/// Seeded op list in rounds of the same work.  Tiles: each round is one
/// request touching the pond's FFT-engine region plus an equal share of
/// field-only requests, so every round carries the same mix of FFT,
/// separable and transition work.  Windows: only four 1024² windows touch
/// the pond, too few to spread over a run, so each round is one field-only
/// window.  Ops tile [-half, half)² op edges around the pond.
std::vector<std::vector<ColdOp>> cold_rounds(const InhomogeneousGenerator& gen, bool tiles,
                                             std::uint64_t seed) {
    const std::int64_t edge = tiles ? kTile : 4 * kTile;
    const std::int64_t half = tiles ? 16 : 6;
    std::vector<ColdOp> pond, field;
    std::vector<double> g(gen.map().region_count());
    for (std::int64_t j = -half; j < half; ++j) {
        for (std::int64_t i = -half; i < half; ++i) {
            ColdOp op;
            op.tile = tiles;
            op.rect = Rect{i * edge, j * edge, edge, edge};
            op.key = TileKey{i, j, 0};
            bool touches_fft = false;
            for (std::int64_t y = 0; y <= edge && !touches_fft; y += 8) {
                for (std::int64_t x = 0; x <= edge && !touches_fft; x += 8) {
                    gen.map().weights_at(gen.x_of(op.rect.x0 + std::min(x, edge - 1)),
                                         gen.y_of(op.rect.y0 + std::min(y, edge - 1)), g);
                    for (std::size_t m = 0; m < g.size(); ++m) {
                        touches_fft |= g[m] > 0.0 && !separable_family(gen.map(), m);
                    }
                }
            }
            (touches_fft ? pond : field).push_back(op);
        }
    }
    std::mt19937_64 rng(seed);
    std::shuffle(pond.begin(), pond.end(), rng);
    std::shuffle(field.begin(), field.end(), rng);
    std::vector<std::vector<ColdOp>> rounds;
    if (!tiles) {
        for (const ColdOp& op : field) {
            rounds.push_back({op});
        }
        return rounds;
    }
    const std::size_t per = field.size() / pond.size();
    for (std::size_t r = 0; r < pond.size(); ++r) {
        std::vector<ColdOp> round(field.begin() + static_cast<std::ptrdiff_t>(r * per),
                                  field.begin() + static_cast<std::ptrdiff_t>((r + 1) * per));
        round.insert(round.begin() + static_cast<std::ptrdiff_t>(rng() % (per + 1)), pond[r]);
        rounds.push_back(std::move(round));
    }
    return rounds;
}

int cmd_cold(const Args& a) {
    const std::string workload = a.str("workload");
    const bool tiles = workload == "cold_tiles";
    if (!tiles && workload != "cold_windows") {
        throw std::runtime_error("unknown cold workload " + workload);
    }
    const long port = static_cast<long>(a.num("port"));
    const long pid = static_cast<long>(a.num("pid"));
    const auto seed = static_cast<std::uint64_t>(a.num("seed"));
    const auto order = static_cast<std::uint64_t>(a.num("order", static_cast<std::int64_t>(seed)));
    const double seconds = std::stod(a.str("seconds"));
    const int conns = static_cast<int>(a.num("conns"));
    const bool trace = a.num("trace", 0) != 0;
    const Scene scene = load_scene(a.str("scene"), seed);
    const InhomogeneousGenerator gen = make_scene_generator(scene);

    std::vector<ColdOp> ops;
    std::vector<int> round_of;
    ReplayPlan plan;
    plan.window = !tiles;
    {
        const auto rounds = cold_rounds(gen, tiles, order);
        for (std::size_t r = 0; r < rounds.size(); ++r) {
            for (const ColdOp& op : rounds[r]) {
                ops.push_back(op);
                round_of.push_back(static_cast<int>(r));
            }
        }
        for (const ColdOp& op : rounds.front()) {
            for (const TileKey& k : covering_tiles(TileShape{kTile, kTile}, op.rect)) {
                plan.keys.push_back(k);
            }
        }
    }
    std::vector<net::HttpClient> clients;
    for (int i = 0; i < conns; ++i) {
        clients.push_back(make_client(port));
    }
    std::vector<Outcome> out(ops.size());
    std::vector<SampleSet> samples(ops.size());
    std::vector<Sums> sums(ops.size());

    const Counters c0 = fetch_counters(clients[0]);
    Window win;
    const double cpu0 = proc_cpu_s(pid);
    win.start();
    drive(clients, round_of, win.t0 + seconds, [&](net::HttpClient& c, std::size_t i) {
        const ColdOp& op = ops[i];
        const double t0 = mono_s();
        Outcome& o = out[i];
        net::ClientResponse r;
        try {
            r = c.get(op.tile ? tile_target(op.key) : window_target(op.rect));
        } catch (const std::exception& e) {
            o.note = e.what();
        }
        o.ms = (mono_s() - t0) * 1e3;
        const auto n = static_cast<std::size_t>(op.rect.nx * op.rect.ny);
        o.ok = r.status == 200 && r.body.size() == n * sizeof(float);
        if (!o.ok) {
            o.note = "status " + std::to_string(r.status) + " " + o.note;
            return;
        }
        o.points = static_cast<double>(n);
        // Seam samples: tiles at one seeded corner; windows at their origin
        // and at two seeded interior seam crossings.
        std::mt19937_64 rng(order ^ (i * 0x9E3779B97F4A7C15ULL));
        SampleSet& s = samples[i];
        if (op.tile) {
            s.take(op.rect, r.body, op.rect.x0 + (rng() % 2 ? op.rect.nx : 0),
                   op.rect.y0 + (rng() % 2 ? op.rect.ny : 0));
        } else {
            s.take(op.rect, r.body, op.rect.x0, op.rect.y0);
            for (int k = 0; k < 2; ++k) {
                s.take(op.rect, r.body, op.rect.x0 + kTile * (1 + static_cast<std::int64_t>(rng() % 3)),
                       op.rect.y0 + kTile * (1 + static_cast<std::int64_t>(rng() % 3)));
            }
        }
        sums[i] = body_sums(r.body);
    });
    win.stop();
    const double cpu1 = proc_cpu_s(pid);
    const Counters c1 = fetch_counters(clients[0]);
    const double rtt = trace ? healthz_rtt_us(clients[0]) : 0.0;
    for (auto& c : clients) {
        c.close();
    }
    out.resize(static_cast<std::size_t>(std::count_if(out.begin(), out.end(), [](const Outcome& o) {
        return o.ms > 0.0;
    })));

    // ---- checks (after the timed phase; rrsd is idle)
    Checks checks;
    const std::size_t n_ops = out.size();
    double points = 0.0;
    std::uint64_t expect_noise = 0;
    SampleSet all;
    Pool field_pool;
    std::size_t field_region = 0;
    for (std::size_t m = 0; m < gen.map().region_count(); ++m) {
        if (separable_family(gen.map(), m)) {
            field_region = m;
        }
    }
    for (std::size_t i = 0; i < n_ops; ++i) {
        if (!checks.expect(out[i].ok, "request " + std::to_string(i) + " failed: " + out[i].note)) {
            continue;
        }
        points += out[i].points;
        for (const TileKey& k : covering_tiles(TileShape{kTile, kTile}, ops[i].rect)) {
            const RectWeights w = analyse(gen, tile_rect(TileShape{kTile, kTile}, k));
            expect_noise += expected_noise_points(gen, w);
        }
        const RectWeights w = analyse(gen, ops[i].rect);
        if (std::all_of(w.label.begin(), w.label.end(),
                        [&](int l) { return l == static_cast<int>(field_region); })) {
            field_pool.add(sums[i]);
        }
        all.samples.insert(all.samples.end(), samples[i].samples.begin(), samples[i].samples.end());
        all.corners.insert(all.corners.end(), samples[i].corners.begin(), samples[i].corners.end());
    }
    check_samples(gen, all, checks);
    field_pool.check("field", gen.map().spectrum(field_region)->params(), checks);
    checks.expect(delta(c0, c1, "inhom.points") == points,
                  fmt("inhom.points delta %.0f != points received %.0f",
                      delta(c0, c1, "inhom.points"), points));
    checks.expect(delta(c0, c1, "noise.points") == static_cast<double>(expect_noise),
                  fmt("noise.points delta %.0f != kernel-extent noise rects %.0f",
                      delta(c0, c1, "noise.points"), static_cast<double>(expect_noise)));
    // The closing /metrics request is counted before it renders.
    checks.expect(delta(c0, c1, "net.requests") == static_cast<double>(n_ops + 1),
                  fmt("net.requests delta %.0f != requests sent %.0f",
                      delta(c0, c1, "net.requests"), static_cast<double>(n_ops + 1)));
    checks.expect(delta(c0, c1, "service.tile.generations") == points / (kTile * kTile),
                  "cold tiles were not each generated exactly once");
    check_identities(c0, c1, checks);

    Json j;
    checks.put(j);
    put_load(j, out, win, pid, cpu0, cpu1, c0, c1);
    j.num("net.healthz_rtt_us", rtt);
    if (trace) {
        j.put("replay", replay(a.str("scene"), seed, a.str("dir"), plan));
    }
    std::cout << j.dump() << std::endl;
    return 0;
}

// ------------------------------------------------------------------- warm

/// One tile of the warm working set as first served.
struct FillTile {
    TileKey key;
    std::string f32, f32_etag, i16, i16_etag;
    double scale = 0.0, offset = 0.0;
};

/// The warm working set: 8 × 16 tiles around the pond, 64 MiB in the RAM
/// cache's terms (a 256² tile of doubles is 512 KiB).
const Rect kWarmBlock{-4 * kTile, -8 * kTile, 8 * kTile, 16 * kTile};

std::string header_or(const net::ClientResponse& r, const char* name) {
    const std::string* h = r.header(name);
    return h ? *h : std::string();
}

void write_blob(std::ostream& o, const std::string& s) {
    const std::uint64_t n = s.size();
    o.write(reinterpret_cast<const char*>(&n), sizeof n);
    o.write(s.data(), static_cast<std::streamsize>(n));
}

std::string read_blob(std::istream& in) {
    std::uint64_t n = 0;
    in.read(reinterpret_cast<char*>(&n), sizeof n);
    std::string s(n, '\0');
    in.read(s.data(), static_cast<std::streamsize>(n));
    return s;
}

/// i16 bodies must decode to within half a quantisation step of the f32
/// values served for the same tile.
bool i16_matches(const FillTile& t) {
    const std::size_t n = t.f32.size() / sizeof(float);
    if (t.i16.size() != n * sizeof(std::int16_t)) {
        return false;
    }
    for (std::size_t i = 0; i < n; ++i) {
        std::int16_t q = 0;
        std::memcpy(&q, t.i16.data() + i * sizeof q, sizeof q);
        const double v = t.offset + t.scale * q;
        const double f = body_f32(t.f32, i);
        if (std::fabs(v - f) > 0.5 * t.scale + std::ldexp(std::fabs(f), -23) + 1e-12) {
            return false;
        }
    }
    return true;
}

int cmd_fill(const Args& a) {
    const long port = static_cast<long>(a.num("port"));
    const Scene scene = load_scene(a.str("scene"), std::nullopt);
    const InhomogeneousGenerator gen = make_scene_generator(scene);
    net::HttpClient c = make_client(port);
    Checks checks;
    // One window generates the block across the pool; the tiles are then
    // served from the cache in both encodings.
    const net::ClientResponse w = c.get(window_target(kWarmBlock));
    const auto wn = static_cast<std::size_t>(kWarmBlock.nx * kWarmBlock.ny);
    if (!checks.expect(w.status == 200 && w.body.size() == wn * sizeof(float),
                       "fill window failed")) {
        Json j;
        checks.put(j);
        std::cout << j.dump() << std::endl;
        return 0;
    }
    SampleSet samples;
    std::mt19937_64 rng(1);
    for (int k = 0; k < 6; ++k) {
        samples.take(kWarmBlock, w.body, kWarmBlock.x0 + kTile * (1 + static_cast<std::int64_t>(rng() % 7)),
                     kWarmBlock.y0 + kTile * (1 + static_cast<std::int64_t>(rng() % 15)));
    }
    check_samples(gen, samples, checks);
    std::ofstream o(a.str("out"), std::ios::binary);
    const std::vector<TileKey> keys = covering_tiles(TileShape{kTile, kTile}, kWarmBlock);
    for (const TileKey& k : keys) {
        FillTile t;
        t.key = k;
        const net::ClientResponse f = c.get(tile_target(k));
        const net::ClientResponse q = c.get(tile_target(k, "i16"));
        t.f32 = f.body;
        t.f32_etag = header_or(f, "etag");
        t.i16 = q.body;
        t.i16_etag = header_or(q, "etag");
        t.scale = std::stod(header_or(q, "x-rrs-scale").empty() ? "0" : header_or(q, "x-rrs-scale"));
        t.offset = std::stod(header_or(q, "x-rrs-offset").empty() ? "0" : header_or(q, "x-rrs-offset"));
        checks.expect(f.status == 200 && q.status == 200 && !t.f32_etag.empty() &&
                          t.f32_etag != t.i16_etag,
                      "fill tile request failed");
        // The tile's f32 body must be the window's pixels at that place.
        bool same = t.f32.size() == static_cast<std::size_t>(kTile * kTile) * sizeof(float);
        const Rect tr = tile_rect(TileShape{kTile, kTile}, k);
        for (std::int64_t y = 0; y < kTile && same; ++y) {
            const auto wi = static_cast<std::size_t>((tr.y0 - kWarmBlock.y0 + y) * kWarmBlock.nx +
                                                     (tr.x0 - kWarmBlock.x0));
            same = std::memcmp(t.f32.data() + static_cast<std::size_t>(y * kTile) * sizeof(float),
                               w.body.data() + wi * sizeof(float),
                               static_cast<std::size_t>(kTile) * sizeof(float)) == 0;
        }
        checks.expect(same, "tile body differs from the window's pixels");
        checks.expect(i16_matches(t), "i16 body does not decode to the f32 values");
        o.write(reinterpret_cast<const char*>(&t.key.tx), sizeof t.key.tx);
        o.write(reinterpret_cast<const char*>(&t.key.ty), sizeof t.key.ty);
        write_blob(o, t.f32);
        write_blob(o, t.f32_etag);
        write_blob(o, t.i16);
        write_blob(o, t.i16_etag);
        o.write(reinterpret_cast<const char*>(&t.scale), sizeof t.scale);
        o.write(reinterpret_cast<const char*>(&t.offset), sizeof t.offset);
    }
    Json j;
    checks.put(j);
    j.num("tiles", static_cast<double>(keys.size()));
    std::cout << j.dump() << std::endl;
    return 0;
}

std::vector<FillTile> read_fill(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::vector<FillTile> out;
    FillTile t;
    while (in.read(reinterpret_cast<char*>(&t.key.tx), sizeof t.key.tx)) {
        in.read(reinterpret_cast<char*>(&t.key.ty), sizeof t.key.ty);
        t.f32 = read_blob(in);
        t.f32_etag = read_blob(in);
        t.i16 = read_blob(in);
        t.i16_etag = read_blob(in);
        in.read(reinterpret_cast<char*>(&t.scale), sizeof t.scale);
        in.read(reinterpret_cast<char*>(&t.offset), sizeof t.offset);
        out.push_back(t);
    }
    return out;
}

/// Warm request kinds.  No traffic record exists for rrsd, so the shares
/// are an assumption: every kind besides the default plain f32 GET gets one
/// eighth of the working set's tiles (see README).
enum class Kind { kF32, kI16, kMatch, kStale };
constexpr std::size_t kWarmTiles = 128;
constexpr std::size_t kWarmEighth = kWarmTiles / 8;

struct WarmOp {
    std::size_t tile = 0;
    Kind kind = Kind::kF32;
};

/// Check one warm response against the body first served for that tile.
/// Returns an empty string when it is right.
std::string check_warm(const FillTile& t, Kind kind, const net::ClientResponse& r) {
    switch (kind) {
        case Kind::kMatch:
            if (r.status != 304) {
                return "matching ETag answered " + std::to_string(r.status);
            }
            if (!r.body.empty()) {
                return "304 with a body";
            }
            return header_or(r, "etag") == t.f32_etag ? "" : "304 with another ETag";
        case Kind::kStale:
        case Kind::kF32:
            if (r.status != 200) {
                return (kind == Kind::kStale ? "stale ETag answered " : "f32 answered ") +
                       std::to_string(r.status);
            }
            return r.body == t.f32 ? "" : "f32 body differs from the first one served";
        case Kind::kI16:
            if (r.status != 200) {
                return "i16 answered " + std::to_string(r.status);
            }
            return r.body == t.i16 ? "" : "i16 body differs from the first one served";
    }
    return "unknown kind";
}

net::ClientResponse warm_request(net::HttpClient& c, const FillTile& t, Kind kind,
                                 const std::string& stale_etag) {
    switch (kind) {
        case Kind::kF32:
            return c.get(tile_target(t.key));
        case Kind::kI16:
            return c.get(tile_target(t.key, "i16"));
        case Kind::kMatch:
            return c.get(tile_target(t.key), {{"If-None-Match", t.f32_etag}});
        case Kind::kStale:
            return c.get(tile_target(t.key), {{"If-None-Match", stale_etag}});
    }
    return {};
}

int cmd_warm(const Args& a) {
    const long port = static_cast<long>(a.num("port"));
    const long pid = static_cast<long>(a.num("pid"));
    const auto seed = static_cast<std::uint64_t>(a.num("seed"));
    const auto order = static_cast<std::uint64_t>(a.num("order", static_cast<std::int64_t>(seed)));
    const double seconds = std::stod(a.str("seconds"));
    const int conns = static_cast<int>(a.num("conns"));
    const bool trace = a.num("trace", 0) != 0;
    const std::vector<FillTile> fill = read_fill(a.str("fill"));
    if (fill.size() != kWarmTiles) {
        throw std::runtime_error("fill file holds " + std::to_string(fill.size()) + " tiles");
    }
    // Kinds are fixed per tile, independent of the seed, so the set of
    // tiles that reach the RAM cache (all but the 304s) is the same in every
    // run.  A round requests every tile once, in an order the seed draws
    // afresh for each round, as independent clients would.
    std::vector<WarmOp> round(fill.size());
    for (std::size_t i = 0; i < round.size(); ++i) {
        round[i].tile = i;
        const std::size_t k = (i * 37) % round.size();  // spread kinds over the block
        round[i].kind = k < 5 * kWarmEighth   ? Kind::kF32
                        : k < 6 * kWarmEighth ? Kind::kI16
                        : k < 7 * kWarmEighth ? Kind::kMatch
                                              : Kind::kStale;
    }
    std::mt19937_64 rng(order);
    std::shuffle(round.begin(), round.end(), rng);
    ReplayPlan plan;
    plan.cold = false;
    plan.i16 = true;
    for (std::size_t i = 0; i < 32; ++i) {
        plan.keys.push_back(fill[round[i].tile].key);
    }
    // A stale validator: the ETag of another tile of the set.
    auto stale_of = [&](std::size_t tile) { return fill[(tile + 1) % fill.size()].f32_etag; };

    std::vector<net::HttpClient> clients;
    for (int i = 0; i < conns; ++i) {
        clients.push_back(make_client(port));
    }
    Checks checks;
    // Untimed warm-up round: promotes the set from L2 into the RAM cache.
    for (const WarmOp& op : round) {
        const FillTile& t = fill[op.tile];
        const std::string bad = check_warm(t, op.kind, warm_request(clients[0], t, op.kind, stale_of(op.tile)));
        checks.expect(bad.empty(), "warm-up: " + bad);
    }
    // Enough rounds for any plausible speed; the deadline stops far earlier.
    const std::size_t rounds_cap = 1000;
    std::vector<WarmOp> ops;
    std::vector<int> round_of;
    for (std::size_t r = 0; r < rounds_cap; ++r) {
        std::shuffle(round.begin(), round.end(), rng);
        for (const WarmOp& op : round) {
            ops.push_back(op);
            round_of.push_back(static_cast<int>(r));
        }
    }
    std::vector<Outcome> out(round_of.size());
    std::vector<std::string> bad(round_of.size());

    const Counters c0 = fetch_counters(clients[0]);
    Window win;
    const double cpu0 = proc_cpu_s(pid);
    win.start();
    drive(clients, round_of, win.t0 + seconds, [&](net::HttpClient& c, std::size_t i) {
        const WarmOp& op = ops[i];
        const FillTile& t = fill[op.tile];
        const double t0 = mono_s();
        Outcome& o = out[i];
        try {
            const net::ClientResponse r = warm_request(c, t, op.kind, stale_of(op.tile));
            o.ms = (mono_s() - t0) * 1e3;
            bad[i] = check_warm(t, op.kind, r);
            o.ok = r.status == 200 || r.status == 304;
            o.points = r.status == 200 ? static_cast<double>(kTile * kTile) : 0.0;
        } catch (const std::exception& e) {
            o.ms = (mono_s() - t0) * 1e3;
            bad[i] = e.what();
        }
    });
    win.stop();
    const double cpu1 = proc_cpu_s(pid);
    const Counters c1 = fetch_counters(clients[0]);
    const double rtt = trace ? healthz_rtt_us(clients[0]) : 0.0;
    for (auto& c : clients) {
        c.close();
    }
    std::size_t n_ops = 0;
    while (n_ops < out.size() && out[n_ops].ms > 0.0) {
        ++n_ops;
    }
    out.resize(n_ops);
    std::uint64_t wrong = 0;
    std::string first;
    for (std::size_t i = 0; i < n_ops; ++i) {
        if (!bad[i].empty() && wrong++ == 0) {
            first = bad[i];
        }
    }
    checks.expect(n_ops % round.size() == 0, "the timed phase ended inside a round");
    checks.expect(wrong == 0, std::to_string(wrong) + " wrong warm responses; first: " + first);
    checks.expect(delta(c0, c1, "service.tile.generations") == 0,
                  fmt("%.0f generations in the warm phase", delta(c0, c1, "service.tile.generations")));
    checks.expect(delta(c0, c1, "inhom.points") == 0, "surface points generated in the warm phase");
    checks.expect(delta(c0, c1, "net.requests") == static_cast<double>(n_ops + 1),
                  fmt("net.requests delta %.0f != requests sent %.0f",
                      delta(c0, c1, "net.requests"), static_cast<double>(n_ops + 1)));
    checks.expect(delta(c0, c1, "net.not_modified") ==
                      static_cast<double>(n_ops / round.size() * kWarmEighth),
                  "304 count differs from the conditional GETs with a matching ETag");
    check_identities(c0, c1, checks);
    Json j;
    checks.put(j);
    put_load(j, out, win, pid, cpu0, cpu1, c0, c1);
    j.num("net.healthz_rtt_us", rtt);
    if (trace) {
        j.put("replay", replay(a.str("scene"), 7, a.str("dir"), plan));
    }
    std::cout << j.dump() << std::endl;
    return 0;
}

// --------------------------------------------------------------- self-test

Array2D<double> scaled(Array2D<double> a, double k) {
    for (std::size_t y = 0; y < a.ny(); ++y) {
        for (std::size_t x = 0; x < a.nx(); ++x) {
            a(x, y) *= k;
        }
    }
    return a;
}

/// The scene at `path` with `key = value` in its `[spectrum NAME]` section.
Scene scene_with(const std::string& path, const std::string& spectrum, const std::string& key,
                 const std::string& value) {
    std::ifstream in(path);
    std::ostringstream text;
    std::string line, section;
    while (std::getline(in, line)) {
        if (line.rfind('[', 0) == 0) {
            section = line;
        } else if (section == "[spectrum " + spectrum + "]" && line.rfind(key + " ", 0) == 0) {
            line = key + " = " + value;
        }
        text << line << "\n";
    }
    std::istringstream src(text.str());
    return parse_scene(src);
}

bool has_note(const Checks& c, const std::string& what) {
    return std::any_of(c.notes.begin(), c.notes.end(),
                       [&](const std::string& n) { return n.find(what) != std::string::npos; });
}

/// Each check must reject a corrupted output.
int cmd_selftest(const Args& a) {
    const Scene scene = load_scene(a.str("scene"), 7);
    const InhomogeneousGenerator gen = make_scene_generator(scene);
    int failures = 0;
    auto require = [&](bool rejected, const char* what) {
        std::cout << (rejected ? "ok    " : "FAIL  ") << what << "\n";
        failures += rejected ? 0 : 1;
    };
    // A ring tile of the pond, served as f32.
    const Rect tr{kTile, kTile, kTile, kTile};
    const Array2D<double> tile = gen.generate(tr);
    const std::string body = net::encode_tile_f32(tile);
    {
        SampleSet s;
        s.take(tr, body, tr.x0, tr.y0);
        s.take(tr, body, tr.x0 + 100, tr.y0 + 37);
        Checks good;
        check_samples(gen, s, good);
        require(good.failed == 0, "genuine tile samples pass the reference check");
        SampleSet flipped = s;
        flipped.samples[1].served = -flipped.samples[1].served;
        Checks c;
        check_samples(gen, flipped, c);
        require(c.failed > 0, "a flipped sample fails the reference check");
    }
    {
        // Zone statistics on the full scene (pond and field zones), then on
        // the same surface scaled by 1.2.
        const Array2D<double> f = gen.generate(scene.region);
        const RectWeights w = analyse(gen, scene.region);
        Checks good;
        const int tested = check_zones("pond scene", f, w, gen.map(), good);
        require(good.failed == 0 && good.passed > 0 && tested >= 1,
                "a genuine render passes the zone checks, 1/e length included");
        Checks c;
        check_zones("pond scene", scaled(f, 1.2), w, gen.map(), c);
        require(c.failed > 0, "a surface scaled by 1.2 fails the zone checks");
        // The same scene rendered with the field's correlation length
        // halved, then doubled, checked against the true scene's zones.
        const double field_cl = gen.map().spectrum(1)->params().clx;
        for (const double k : {0.5, 2.0}) {
            Scene wrong = scene_with(a.str("scene"), "field", "cl", jnum(k * field_cl));
            wrong.seed = scene.seed;
            const Array2D<double> g = make_scene_generator(wrong).generate(scene.region);
            Checks cc;
            check_zones("pond scene", g, w, gen.map(), cc);
            require(cc.failed > 0 && has_note(cc, "1/e length"),
                    k < 1.0 ? "a field with its cl halved fails the 1/e length check"
                            : "a field with its cl doubled fails the 1/e length check");
        }
        // Pooled field statistics over a field-only 2048² block.
        const Array2D<double> field = gen.generate(Rect{2048, 2048, 2048, 2048});
        const SurfaceParams& fp = gen.map().spectrum(1)->params();
        Pool genuine, bad;
        genuine.add(body_sums(net::encode_tile_f32(field)));
        bad.add(body_sums(net::encode_tile_f32(scaled(field, 1.2))));
        Checks cg, cb;
        genuine.check("field", fp, cg);
        bad.check("field", fp, cb);
        require(cg.failed == 0, "a genuine field passes the pooled check");
        require(cb.failed > 0, "a field scaled by 1.2 fails the pooled check");
    }
    {
        FillTile t;
        t.key = TileKey{1, 1, 0};
        t.f32 = body;
        t.f32_etag = "\"a\"";
        const net::QuantizedTile q = net::encode_tile_i16(tile);
        t.i16 = q.body;
        t.scale = q.scale;
        t.offset = q.offset;
        require(i16_matches(t), "a genuine i16 body decodes to the f32 values");
        net::ClientResponse ok;
        ok.status = 200;
        ok.body = body;
        require(check_warm(t, Kind::kF32, ok).empty(), "a genuine 200 body passes");
        net::ClientResponse wrong = ok;
        wrong.body[1000] = static_cast<char>(wrong.body[1000] ^ 0x10);
        require(!check_warm(t, Kind::kF32, wrong).empty(), "a 200 with a wrong body fails");
        net::ClientResponse stale;
        stale.status = 304;
        stale.headers.emplace_back("etag", "\"a\"");
        require(!check_warm(t, Kind::kStale, stale).empty(), "a 304 to a stale ETag fails");
        require(check_warm(t, Kind::kMatch, stale).empty(), "a 304 to a matching ETag passes");
        FillTile bad_q = t;
        bad_q.i16[10] = static_cast<char>(bad_q.i16[10] ^ 0x40);
        require(!i16_matches(bad_q), "a corrupted i16 body fails the decode check");
    }
    std::cout << (failures == 0 ? "selftest passed" : "selftest FAILED") << std::endl;
    return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        std::cerr << "usage: pbtool scenes|cold|fill|warm|selftest --option value ...\n";
        return 2;
    }
    try {
        const std::string cmd = argv[1];
        const Args args(argc, argv, 2);
        if (cmd == "scenes") {
            return cmd_scenes(args);
        }
        if (cmd == "cold") {
            return cmd_cold(args);
        }
        if (cmd == "fill") {
            return cmd_fill(args);
        }
        if (cmd == "warm") {
            return cmd_warm(args);
        }
        if (cmd == "selftest") {
            return cmd_selftest(args);
        }
        std::cerr << "pbtool: unknown subcommand " << cmd << "\n";
        return 2;
    } catch (const std::exception& e) {
        std::cerr << "pbtool: " << e.what() << "\n";
        return 1;
    }
}
