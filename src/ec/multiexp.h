#pragma once
// Pippenger (bucket-method) multi-scalar multiplication.
//
// The Groth16 prover and setup are dominated by multiexps of size equal to
// the number of circuit variables/constraints, so this is the performance-
// critical primitive of the whole proving pipeline.
//
// The engine (DESIGN.md §11): signed-digit windows (digits in
// [-2^(c-1), 2^(c-1)], so half the buckets), batch-affine bucket
// accumulation (buckets stay affine; each conflict-free pass resolves its
// additions with ONE field inversion via Montgomery's trick), and a GLV
// front-end that splits every scalar into two half-width scalars against the
// endomorphism image, halving the window count. Bases arrive as GlvBase
// values — affine, with the image's x coordinate beside them — so a proving
// key built once at setup is never normalized or mapped again; scalars are
// split by fixed-width Babai rounding (glv_split) and the half-scalar signs
// fold into the digits.
//
// Group addition is exact, so the engine computes the same group element
// for any bucketing, split or order; serialization normalizes to affine,
// hence byte outputs are identical to the textbook oracle in
// tests/oracle/multiexp_oracle.h (pinned by tests/test_ec.cpp and
// test_snark.cpp).
//
// Parallelism: a multiexp is a MultiexpJob, and its pool tasks are its
// windows. run_multiexp_jobs runs the windows of several jobs — the five
// Groth16 queries of one proof, G1 and G2 alike — as one pool region, each
// task a full bucket pass over all of its job's points for one window. Each
// job then merges its window sums high-to-low with one Horner pass of
// doublings, so the result does not depend on which thread ran what.
// ZL_THREADS=1 runs the same tasks in order on the caller.
//
// Windows cover only the significant bits of the split scalars, and zero
// digits never touch a bucket — sparse witness vectors are common in our
// circuits.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <ctime>
#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.h"
#include "ec/bn254_groups.h"
#include "ec/glv.h"
#include "obs/obs.h"

namespace zl {

/// A multiexp base in the engine's form: the affine point and beta*x, the x
/// coordinate of its endomorphism image phi(P) = (beta*x, y).
template <typename Point>
struct GlvBase {
  typename Point::Field x{};
  typename Point::Field y{};
  typename Point::Field endo_x{};
  bool infinity = true;

  Point point() const { return infinity ? Point::infinity() : Point::from_affine_unchecked(x, y); }
};

/// Writes glv-form bases for `points` to out[0 .. points.size()), with one
/// field inversion for the whole range.
template <typename Point>
void write_glv_bases(const std::vector<Point>& points, GlvBase<Point>* out) {
  const auto& scale = detail::glv_curve<Point>().endo_scale;
  const std::vector<typename Point::Affine> affine = Point::normalize(points);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& a = affine[i];
    out[i] = a.infinity ? GlvBase<Point>{} : GlvBase<Point>{a.x, a.y, scale * a.x, false};
  }
}

template <typename Point>
std::vector<GlvBase<Point>> glv_bases(const std::vector<Point>& points) {
  std::vector<GlvBase<Point>> out(points.size());
  parallel_for_range(points.size(), [&](std::size_t begin, std::size_t end) {
    write_glv_bases(std::vector<Point>(points.begin() + static_cast<std::ptrdiff_t>(begin),
                                       points.begin() + static_cast<std::ptrdiff_t>(end)),
                    out.data() + begin);
  });
  return out;
}

/// Thread CPU time summed over pool tasks. Reads 0 when obs is compiled
/// out: it feeds only the prover's per-query counters.
class TaskCpuTime {
 public:
  /// Adds this thread's CPU time over its lifetime to the total.
  class Scope {
   public:
    explicit Scope(TaskCpuTime& total) : total_(total), start_(now()) {}
    ~Scope() {
      if (ZL_OBS_ENABLED) total_.ns_.fetch_add(now() - start_, std::memory_order_relaxed);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    static std::uint64_t now() {
      if (!ZL_OBS_ENABLED) return 0;
      timespec ts{};
      clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
      return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
             static_cast<std::uint64_t>(ts.tv_nsec);
    }
    TaskCpuTime& total_;
    std::uint64_t start_;
  };

  std::uint64_t ns() const { return ns_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> ns_{0};
};

/// Splits every scalar for the engine (parallel), adding the CPU time spent
/// to `cpu`.
template <typename Point>
std::vector<GlvSplit> glv_split_all(const std::vector<Fr>& scalars, TaskCpuTime& cpu) {
  std::vector<GlvSplit> out(scalars.size());
  parallel_for_range(scalars.size(), [&](std::size_t begin, std::size_t end) {
    const TaskCpuTime::Scope timer(cpu);
    for (std::size_t i = begin; i < end; ++i) out[i] = glv_split<Point>(scalars[i]);
  });
  return out;
}

namespace detail {

/// In-place batch inversion (Montgomery's trick): one inverse() amortized
/// over the whole vector. All entries must be nonzero.
template <typename Field>
void batch_invert_field(std::vector<Field>& xs, std::vector<Field>& prefix) {
  if (xs.empty()) return;
  prefix.resize(xs.size());
  Field acc = Field::one();
  for (std::size_t i = 0; i < xs.size(); ++i) {
    prefix[i] = acc;
    acc *= xs[i];
  }
  Field inv = acc.inverse();
  for (std::size_t i = xs.size(); i-- > 0;) {
    const Field xi = inv * prefix[i];
    inv *= xs[i];
    xs[i] = xi;
  }
}

/// Pippenger window size for n points and `scalar_bits`-bit scalars, chosen
/// by minimizing the engine's field-multiplication cost model: per window,
/// batched-affine bucket fill costs ~6 muls per point while the suffix-sum
/// merge costs ~27 muls per bucket (one mixed + one full Jacobian add) over
/// 2^(c-1) signed-digit buckets. The optimum is well below log2(n): merge
/// adds are ~4.5x the price of batched fill adds.
inline unsigned kernel_window_bits(std::size_t n, unsigned scalar_bits) {
  double best = std::numeric_limits<double>::infinity();
  unsigned best_c = 3;
  for (unsigned c = 3; c <= 16; ++c) {
    const double windows = scalar_bits / c + 1;
    const double cost = windows * (6.0 * static_cast<double>(n) +
                                   27.0 * static_cast<double>(std::size_t{1} << (c - 1)));
    if (cost < best) {
      best = cost;
      best_c = c;
    }
  }
  return best_c;
}

/// Window w of the signed-digit (Booth) recoding of a magnitude below 2^128:
/// the window's c bits, plus the top bit of the window below, minus 2^c
/// when the window's own top bit is set (the carry the window above takes
/// in). Digits lie in [-2^(c-1), 2^(c-1)] and depend on c + 1 bits only, so
/// every window reads its digit straight from the split scalar.
inline std::int32_t booth_digit(unsigned __int128 k, unsigned w, unsigned c) {
  const unsigned pos = w * c;
  std::uint64_t v = 0;  // bit 0: carry in; bits 1..c: the window
  if (pos == 0) {
    v = static_cast<std::uint64_t>(k) << 1;
  } else if (pos - 1 < 128) {
    v = static_cast<std::uint64_t>(k >> (pos - 1));
  }
  v &= (std::uint64_t{2} << c) - 1;
  const auto raw = static_cast<std::int32_t>(v >> 1);
  return raw + static_cast<std::int32_t>(v & 1) - ((raw >> (c - 1)) << c);
}

inline unsigned bit_length(unsigned __int128 k) {
  const auto hi = static_cast<std::uint64_t>(k >> 64);
  if (hi != 0) return 64 + static_cast<unsigned>(std::bit_width(hi));
  return static_cast<unsigned>(std::bit_width(static_cast<std::uint64_t>(k)));
}

/// n < 8: the plain per-point ladder beats any bucket schedule.
template <typename Point>
Point multiexp_ladder(const std::vector<Point>& points, const std::vector<Fr>& scalars) {
  Point acc = Point::infinity();
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!scalars[i].is_zero()) acc += points[i] * scalars[i].to_bigint();
  }
  return acc;
}

}  // namespace detail

/// The window tasks of one multiexp, as run_multiexp_jobs sees them: the
/// region mixes G1 and G2 jobs.
class WindowedJob {
 public:
  virtual unsigned windows() const = 0;
  virtual void run_window(unsigned w) = 0;

 protected:
  ~WindowedJob() = default;
};

/// One multiexp sum_i k_i * P_i over glv-form bases and split scalars. The
/// constructor sizes the windows; run_multiexp_jobs fills one window sum per
/// task; result() merges them.
template <typename Point>
class MultiexpJob final : public WindowedJob {
 public:
  /// bases[i] pairs with split[i]; both must outlive the job.
  MultiexpJob(const std::vector<GlvBase<Point>>& bases, const GlvSplit* split)
      : bases_(bases), split_(split) {
    if (bases_.size() >= (std::size_t{1} << 30)) {
      throw std::length_error("multiexp: too many points");  // entries pack i into 30 bits
    }
    // Only pairs that can reach a bucket are listed and counted: query
    // vectors are padded with infinities, witness scalars are often zero,
    // and sizing the windows on the raw length would overshoot.
    std::size_t active = 0;
    unsigned bits = 0;
    for (std::size_t i = 0; i < bases_.size(); ++i) {
      if (bases_[i].infinity) continue;
      const unsigned b1 = detail::bit_length(split_[i].k1);
      const unsigned b2 = detail::bit_length(split_[i].k2);
      if (b1 == 0 && b2 == 0) continue;
      live_.push_back(static_cast<std::uint32_t>(i));
      active += static_cast<std::size_t>(b1 != 0) + static_cast<std::size_t>(b2 != 0);
      bits = std::max({bits, b1, b2});
    }
    if (active == 0) return;
    c_ = detail::kernel_window_bits(active, bits);
    sums_.assign(bits / c_ + 1, Point::infinity());  // +1 guard window: the top carry
  }

  unsigned windows() const override { return static_cast<unsigned>(sums_.size()); }

  void run_window(unsigned w) override;

  /// Horner merge of the window sums, high to low.
  Point result() const {
    Point acc = Point::infinity();
    for (std::size_t w = sums_.size(); w-- > 0;) {
      for (unsigned bit = 0; bit < c_; ++bit) acc = acc.dbl();
      acc += sums_[w];
    }
    return acc;
  }

  /// CPU time of this job's window tasks.
  const TaskCpuTime& cpu() const { return cpu_; }

 private:
  const std::vector<GlvBase<Point>>& bases_;
  const GlvSplit* split_;
  std::vector<std::uint32_t> live_;  // i with P_i finite and k_i != 0
  unsigned c_ = 0;
  std::vector<Point> sums_;
  TaskCpuTime cpu_;
};

/// Runs every window of every job as one pool region, in the given job
/// order: list the costliest jobs first so no long task starts last.
inline void run_multiexp_jobs(std::initializer_list<WindowedJob*> jobs) {
  std::vector<std::pair<WindowedJob*, unsigned>> tasks;
  for (WindowedJob* job : jobs) {
    for (unsigned w = 0; w < job->windows(); ++w) tasks.emplace_back(job, w);
  }
  ThreadPool::instance().run(tasks.size(),
                             [&](std::size_t t) { tasks[t].first->run_window(tasks[t].second); });
}

template <typename Point>
void MultiexpJob<Point>::run_window(unsigned w) {
  using Field = typename Point::Field;
  using Affine = typename Point::Affine;
  const TaskCpuTime::Scope timer(cpu_);
  const std::size_t bucket_count = std::size_t{1} << (c_ - 1);
  // Each base i contributes two entries, k1*P_i (h = 0) and k2*phi(P_i)
  // (h = 1). A digit's sign and its half-scalar's sign fold into one
  // negation flag.
  std::vector<std::uint32_t> cur(bucket_count), bend(bucket_count, 0);
  for (const std::uint32_t i : live_) {
    for (unsigned h = 0; h < 2; ++h) {
      const std::int32_t d = detail::booth_digit(h == 0 ? split_[i].k1 : split_[i].k2, w, c_);
      if (d != 0) ++bend[static_cast<std::uint32_t>(d < 0 ? -d : d) - 1];
    }
  }
  // Counting sort into per-bucket groups, then conflict-free rounds: round t
  // consumes the t-th entry of every bucket that still has one. Each entry
  // is touched exactly once, and each round pays a single inversion for all
  // of its additions.
  std::uint32_t total = 0;
  std::vector<std::uint32_t> active, next_active;
  for (std::size_t b = 0; b < bucket_count; ++b) {
    cur[b] = total;
    total += bend[b];
    bend[b] = total;
    if (cur[b] != total) active.push_back(static_cast<std::uint32_t>(b));
  }
  std::vector<std::uint32_t> sorted(total);  // (i << 2) | (h << 1) | neg
  for (const std::uint32_t i : live_) {
    for (unsigned h = 0; h < 2; ++h) {
      const GlvSplit& s = split_[i];
      const std::int32_t d = detail::booth_digit(h == 0 ? s.k1 : s.k2, w, c_);
      if (d == 0) continue;
      const bool neg = (d < 0) != (h == 0 ? s.k1_neg : s.k2_neg);
      sorted[cur[static_cast<std::uint32_t>(d < 0 ? -d : d) - 1]++] =
          (i << 2) | (h << 1) | static_cast<std::uint32_t>(neg);
    }
  }
  for (std::size_t b = bucket_count; b-- > 0;) {
    cur[b] = b == 0 ? 0 : bend[b - 1];  // rewind cursors to group starts
  }

  struct Pending {
    std::uint32_t bucket;
    std::uint32_t entry;
    bool dbl;
  };
  const auto x_of = [&](std::uint32_t entry) -> const Field& {
    const GlvBase<Point>& p = bases_[entry >> 2];
    return (entry & 2) != 0 ? p.endo_x : p.x;
  };
  const auto y_of = [&](std::uint32_t entry) {
    const Field& y = bases_[entry >> 2].y;
    return (entry & 1) != 0 ? -y : y;
  };
  std::vector<Affine> buckets(bucket_count);
  std::vector<Pending> pending;
  std::vector<Field> dens, inv_scratch;
  while (!active.empty()) {
    pending.clear();
    dens.clear();
    next_active.clear();
    for (const std::uint32_t bkt : active) {
      const std::uint32_t entry = sorted[cur[bkt]++];
      if (cur[bkt] < bend[bkt]) next_active.push_back(bkt);
      Affine& b = buckets[bkt];
      const Field& qx = x_of(entry);
      const Field qy = y_of(entry);
      if (b.infinity) {
        b = Affine{qx, qy, false};  // first hit: direct set, no addition
        continue;
      }
      if (b.x == qx) {
        if (b.y == qy) {
          if (b.y.is_zero()) {
            b = Affine{};  // order-2 point; total-ness over speed
            continue;
          }
          pending.push_back(Pending{bkt, entry, true});
          dens.push_back(b.y.dbl());
        } else {
          b = Affine{};  // P + (-P)
        }
        continue;
      }
      pending.push_back(Pending{bkt, entry, false});
      dens.push_back(qx - b.x);
    }
    detail::batch_invert_field(dens, inv_scratch);
    for (std::size_t j = 0; j < pending.size(); ++j) {
      Affine& b = buckets[pending[j].bucket];
      const Field& inv = dens[j];
      Field lam, x3;
      if (pending[j].dbl) {
        const Field xx = b.x.squared();
        lam = (xx + xx + xx) * inv;  // 3x^2 / 2y
        x3 = lam.squared() - b.x.dbl();
      } else {
        const Field& qx = x_of(pending[j].entry);
        lam = (y_of(pending[j].entry) - b.y) * inv;  // (y2 - y1) / (x2 - x1)
        x3 = lam.squared() - b.x - qx;
      }
      b.y = lam * (b.x - x3) - b.y;
      b.x = x3;
    }
    active.swap(next_active);
  }
  // Sum m * B_m via running suffix sums; buckets[b] holds magnitude b+1.
  Point running = Point::infinity();
  Point window_sum = Point::infinity();
  for (std::size_t b = bucket_count; b-- > 0;) {
    running = running.add_mixed(buckets[b]);
    window_sum += running;
  }
  sums_[w] = window_sum;
}

/// Computes sum_i scalars[i] * points[i] over G1 or G2: one MultiexpJob over
/// freshly converted bases. Tiny inputs take the plain ladder.
template <typename Point>
Point multiexp(const std::vector<Point>& points, const std::vector<Fr>& scalars) {
  if (points.size() != scalars.size()) {
    throw std::invalid_argument("multiexp: size mismatch");
  }
  ZL_TRACE_SPAN("prover.multiexp");
  if (points.size() < 8) return detail::multiexp_ladder(points, scalars);
  const std::vector<GlvBase<Point>> bases = glv_bases(points);
  TaskCpuTime prep;
  const std::vector<GlvSplit> split = glv_split_all<Point>(scalars, prep);
  MultiexpJob<Point> job(bases, split.data());
  run_multiexp_jobs({&job});
  return job.result();
}

}  // namespace zl
