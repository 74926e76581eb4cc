#ifndef TOPODB_ARRANGEMENT_CELL_COMPLEX_H_
#define TOPODB_ARRANGEMENT_CELL_COMPLEX_H_

#include <string>
#include <vector>

#include "src/arrangement/label.h"
#include "src/base/status.h"
#include "src/geom/point.h"
#include "src/obs/metrics.h"
#include "src/region/instance.h"

namespace topodb {

// How candidate segment pairs are found during arrangement construction.
// Both strategies feed the same exact narrow phase (IntersectSegments on
// rational coordinates), so they produce identical cell complexes; they
// differ only in running time.
enum class BroadPhase {
  // Uniform grid over segment bounding boxes: near-linear on instances
  // whose segments are short relative to the instance extent (chains,
  // random rectangles). The default.
  kGrid,
  // Test every pair of input segments: O(n^2), kept as the reference
  // implementation and for workloads that defeat bucketing.
  kAllPairs,
};

struct ArrangementOptions {
  BroadPhase broad_phase = BroadPhase::kGrid;
  // Optional sink for build metrics (broad-phase candidate pairs vs exact
  // intersections found, predicate filter hits and exact fallbacks, cell
  // counts, build wall time). nullptr disables collection at near-zero
  // cost.
  MetricsRegistry* metrics = nullptr;
};

// The maximal cell complex of a spatial instance (Section 3 of the paper):
// the planar subdivision induced by all region boundaries, with
//   - vertices: points where the local boundary structure is not a plain
//     arc (crossings, touch points, T-joints, shared-arc endpoints), plus
//     one artificial anchor vertex on every boundary cycle that has no
//     natural vertex (so every edge has endpoints; the anchor is placed
//     deterministically, hence homeomorphic instances still get isomorphic
//     complexes);
//   - edges: maximal open boundary arcs between vertices (loops allowed),
//     each carrying the set of regions whose boundary runs along it;
//   - faces: connected components of the complement of the boundaries
//     (faces may enclose other connected components of the arrangement —
//     the containment needed for the paper's "embedded-in" tree is
//     recoverable from the face structure).
//
// Every cell carries the labeling l(cell): names(I) -> {o, boundary, -}.
// This structure is the paper's G_I enriched with geometry; the rotation
// system around each vertex realizes the orientation relation O.
//
// This module substitutes the Kozen-Yap [KY85] algebraic cell
// decomposition: inputs are polygonal (Theorem 3.5 of the paper shows this
// loses no topological information), and the decomposition is computed by
// exact rational overlay instead of polynomial sign classes.
class CellComplex {
 public:
  // A dart is a directed edge side; the pair (edge, direction).
  struct Dart {
    int edge = -1;
    int origin = -1;      // Vertex id the dart leaves from.
    int twin = -1;        // Dart of the same edge in the other direction.
    int next_ccw = -1;    // Next dart counterclockwise around origin.
    int prev_ccw = -1;
    int face = -1;        // Face on the left of the dart's walk.
    int next_in_face = -1;  // Next dart of the face boundary walk.
    Point direction;      // First chain step direction (for rotation).
  };

  struct Vertex {
    Point point;
    CellLabel label;
    std::vector<int> darts;  // In counterclockwise rotation order.
  };

  struct Edge {
    int dart0 = -1;  // Forward dart; its twin is dart0 ^ 1.
    std::vector<Point> chain;  // Geometry from origin(dart0) to the other
                               // endpoint, inclusive on both ends.
    std::vector<int> owners;   // Region indices whose boundary contains it.
    CellLabel label;
  };

  struct Face {
    CellLabel label;
    bool unbounded = false;
    std::vector<int> cycle_darts;  // One representative dart per boundary
                                   // cycle of this face.
  };

  // Builds the cell complex of the instance. Fails only on invalid input
  // (the instance regions were already validated individually; failures
  // here indicate inconsistent geometry such as zero regions).
  static Result<CellComplex> Build(const SpatialInstance& instance);
  static Result<CellComplex> Build(const SpatialInstance& instance,
                                   const ArrangementOptions& options);

  const std::vector<std::string>& region_names() const {
    return region_names_;
  }
  int region_index(const std::string& name) const;

  const std::vector<Vertex>& vertices() const { return vertices_; }
  const std::vector<Edge>& edges() const { return edges_; }
  const std::vector<Face>& faces() const { return faces_; }
  const std::vector<Dart>& darts() const { return darts_; }
  int exterior_face() const { return exterior_face_; }

  // Endpoints of an edge: (origin of forward dart, origin of its twin).
  std::pair<int, int> EdgeEndpoints(int edge) const;

  // Faces on the two sides of an edge (may coincide for bridge edges).
  std::pair<int, int> EdgeFaces(int edge) const;

  // Number of connected components of the skeleton (vertices + edges).
  int SkeletonComponentCount() const;
  // Component id (0-based) of each vertex, aligned with vertices().
  std::vector<int> VertexComponents() const;

  // The paper's notions: connected iff the skeleton is connected; simple
  // iff every face boundary is a single cycle without repeated vertices.
  bool IsConnected() const;
  bool IsSimple() const;

  // Signed area (times 2) of the boundary walk starting at dart; positive
  // means the walk is counterclockwise (an outer cycle).
  Rational CycleArea2(int dart) const;

  // All darts of the face-boundary walk containing dart.
  std::vector<int> FaceCycle(int dart) const;

  // Human-readable dump used by examples and debugging.
  std::string DebugString() const;

 private:
  friend class CellComplexBuilder;

  std::vector<std::string> region_names_;
  std::vector<Vertex> vertices_;
  std::vector<Edge> edges_;
  std::vector<Face> faces_;
  std::vector<Dart> darts_;
  int exterior_face_ = -1;
};

}  // namespace topodb

#endif  // TOPODB_ARRANGEMENT_CELL_COMPLEX_H_
