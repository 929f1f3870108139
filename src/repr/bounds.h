#ifndef S2_REPR_BOUNDS_H_
#define S2_REPR_BOUNDS_H_

#include <string_view>
#include <vector>

#include "common/result.h"
#include "repr/compressed.h"
#include "repr/half_spectrum.h"

namespace s2::repr {

/// Lower/upper bracket on the true Euclidean distance between an
/// uncompressed query and a compressed object.
struct DistanceBounds {
  double lower = 0.0;
  double upper = 0.0;
};

/// The bounding algorithms of the paper's Section 3, plus two variants:
///
/// * `kGemini`        — LB from the retained coefficients only (symmetric
///                      half-spectrum weighting per Rafiei et al.); no upper
///                      bound (+infinity). Works with any representation.
/// * `kWang`          — first-k + stored error: reverse/forward triangle
///                      inequality on the omitted subvector.
/// * `kBestMin`       — best-k + minProperty (Figure 7): per-coefficient
///                      bounds using the smallest retained magnitude.
/// * `kBestError`     — best-k + stored error (Figure 8): Wang's bounds with
///                      best coefficients.
/// * `kBestMinError`  — best-k + minProperty + error (Figure 9), in a
///                      *provably sound* formulation: the paper's printed
///                      pseudocode can violate both the lower and the upper
///                      bound in corner cases (see bounds.cc for the
///                      analysis); we take the tightest combination of the
///                      per-coefficient credits and energy bookkeeping that
///                      remains a true bracket.
/// * `kBestMinErrorLiteral` — the paper's Figure 9 pseudocode verbatim, kept
///                      for the fidelity ablation (bench_ablation_bounds).
///                      NOT guaranteed to bracket the true distance.
/// * `kBestMinErrorWaterfill` — extension: the *exactly tight* upper bound
///                      under the stored information, via concave
///                      water-filling of the omitted energy (see bounds.cc);
///                      lower bound as in kBestMinError.
enum class BoundMethod {
  kGemini,
  kWang,
  kBestMin,
  kBestError,
  kBestMinError,
  kBestMinErrorLiteral,
  kBestMinErrorWaterfill,
};

/// Display name of a bound method ("LB/UB_BestMinError" style tag).
std::string_view BoundMethodToString(BoundMethod method);

/// The representation kind a method requires.
/// kGemini accepts any kind; error-based methods require a stored error;
/// min-based methods require a best-k representation.
bool MethodCompatibleWith(BoundMethod method, ReprKind kind);

/// A query spectrum prepared for bounding many objects: the magnitudes
/// |Q_k| that every method reads on the bins an object omits are taken once
/// here instead of once per bounded object. Built implicitly from the
/// spectrum, which it references and must not outlive; a search prepares
/// one per query and bounds every object against it.
class QuerySpectrum {
 public:
  QuerySpectrum(const HalfSpectrum& spectrum);
  QuerySpectrum(HalfSpectrum&&) = delete;  // Would reference a temporary.

  const HalfSpectrum& spectrum() const { return spectrum_; }
  /// |Q_k|, the magnitude of bin `k`.
  double magnitude(size_t k) const { return magnitudes_[k]; }

 private:
  const HalfSpectrum& spectrum_;
  std::vector<double> magnitudes_;
};

/// Computes the distance bracket between the full `query` spectrum and the
/// compressed `object`. Returns InvalidArgument when lengths differ or the
/// method is incompatible with the object's representation kind.
Result<DistanceBounds> ComputeBounds(const QuerySpectrum& query,
                                     const CompressedSpectrum& object,
                                     BoundMethod method);

}  // namespace s2::repr

#endif  // S2_REPR_BOUNDS_H_
