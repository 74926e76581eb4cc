#include "src/arrangement/cell_complex.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <set>
#include <sstream>
#include <unordered_map>

#include "src/base/check.h"
#include "src/geom/polygon.h"
#include "src/geom/predicates.h"

namespace topodb {

namespace {

// An input boundary segment with its owning region.
struct RawSeg {
  Point a;
  Point b;
  int owner;
};

// A deduplicated boundary piece between consecutive cut points; owners is
// the sorted set of regions whose boundary runs along it.
struct SubSeg {
  int u = -1;  // Node ids of the endpoints.
  int v = -1;
  std::vector<int> owners;
};

// A boundary piece between consecutive cut points of one input segment,
// pointing at its endpoints in that segment's sorted cut array.
struct Piece {
  const Point* lo;
  const Point* hi;
  int owner;
};

// Lexicographic (x, y) three-way comparison, the order of Point::operator<.
int ComparePoints(const Point& p, const Point& q) {
  if (int c = p.x.Compare(q.x); c != 0) return c;
  return p.y.Compare(q.y);
}

// Lexicographic (lo, hi) order. Equal pieces sort adjacent, and
// subsegments and node ids are numbered in this order, which
// CellComplexTest.GoldenDebugStringDigest pins.
bool PieceLess(const Piece& a, const Piece& b) {
  if (int c = ComparePoints(*a.lo, *b.lo); c != 0) return c < 0;
  return ComparePoints(*a.hi, *b.hi) < 0;
}

// Conservative double bounds of a rational: the grid broad phase only needs
// an interval guaranteed to contain the exact value, so a relative pad far
// wider than ToDouble's rounding error is enough.
double PadDown(const Rational& r) {
  const double d = r.ToDouble();
  return d - (std::abs(d) * 1e-9 + 1e-9);
}
double PadUp(const Rational& r) {
  const double d = r.ToDouble();
  return d + (std::abs(d) * 1e-9 + 1e-9);
}

// Padded double bounding box of one segment plus its cell-index range.
struct GridEntry {
  double lox, loy, hix, hiy;
  int ix0, ix1, iy0, iy1;
};

}  // namespace

// Assembles a CellComplex in stages; see Build() for the pipeline.
class CellComplexBuilder {
 public:
  CellComplexBuilder(const SpatialInstance& instance,
                     const ArrangementOptions& options)
      : instance_(instance), options_(options) {}

  Result<CellComplex> Run() {
    // Records wall time on every exit, including error returns.
    ScopedTimer build_timer(
        RegistryHistogram(options_.metrics, "arrangement.build_us"));
    // The build runs in its thread's predicate mode (ScopedPredicateMode,
    // src/geom/predicates.h). Stats are snapshotted so FlushMetrics can
    // publish this build's deltas.
    pred_start_ = LocalPredicateFilterStats();
    complex_.region_names_ = instance_.names();
    CollectSegments();
    if (raw_.empty()) {
      // Empty instance: a single unbounded face with an empty label.
      CellComplex::Face face;
      face.unbounded = true;
      complex_.faces_.push_back(std::move(face));
      complex_.exterior_face_ = 0;
      FlushMetrics();
      return std::move(complex_);
    }
    SplitAtIntersections();
    MarkEssentialNodes();
    ChainEdges();
    BuildDartsAndRotation();
    TraceFaceCycles();
    TOPODB_RETURN_NOT_OK(AssignCyclesToFaces());
    TOPODB_RETURN_NOT_OK(PropagateFaceLabels());
    ComputeEdgeAndVertexLabels();
    FlushMetrics();
    return std::move(complex_);
  }

 private:
  int NodeId(const Point& p) {
    auto [it, inserted] = node_ids_.try_emplace(p, -1);
    if (inserted) {
      it->second = static_cast<int>(node_points_.size());
      node_points_.push_back(p);
    }
    return it->second;
  }

  void CollectSegments() {
    int region_idx = 0;
    for (const auto& [name, region] : instance_.regions()) {
      const Polygon& poly = region.boundary();
      const size_t n = poly.size();
      for (size_t i = 0; i < n; ++i) {
        raw_.push_back({poly.vertex(i), poly.vertex((i + 1) % n),
                        region_idx});
      }
      ++region_idx;
    }
  }

  void SplitAtIntersections() {
    const size_t n = raw_.size();
    std::vector<std::vector<Point>> cuts(n);
    for (size_t i = 0; i < n; ++i) {
      cuts[i].push_back(raw_[i].a);
      cuts[i].push_back(raw_[i].b);
    }
    // Narrow phase shared by both broad phases: exact intersection, cut
    // points recorded on both segments.
    auto cut_pair = [&](size_t i, size_t j) {
      ++candidate_pairs_;
      SegmentIntersection isect =
          IntersectSegments(raw_[i].a, raw_[i].b, raw_[j].a, raw_[j].b);
      if (isect.kind != SegmentIntersection::Kind::kNone) {
        ++exact_intersections_;
      }
      switch (isect.kind) {
        case SegmentIntersection::Kind::kNone:
          break;
        case SegmentIntersection::Kind::kPoint:
          cuts[i].push_back(isect.p0);
          cuts[j].push_back(isect.p0);
          break;
        case SegmentIntersection::Kind::kOverlap:
          cuts[i].push_back(isect.p0);
          cuts[i].push_back(isect.p1);
          cuts[j].push_back(isect.p0);
          cuts[j].push_back(isect.p1);
          break;
      }
    };
    if (options_.broad_phase == BroadPhase::kAllPairs ||
        !GridCutPairs(cut_pair)) {
      grid_fallback_ = options_.broad_phase != BroadPhase::kAllPairs;
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = i + 1; j < n; ++j) cut_pair(i, j);
      }
    }
    // Split each raw segment at its sorted, deduplicated cut points, then
    // merge the pieces several segments share: sorted by their exact
    // (lo, hi) endpoints, each run of equal pieces becomes one subsegment
    // owned by the union of the run's owners.
    std::vector<Piece> pieces;
    for (size_t i = 0; i < n; ++i) {
      std::vector<Point>& pts = cuts[i];
      SortAlongDirection(&pts, raw_[i].b - raw_[i].a);
      pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
      for (size_t k = 0; k + 1 < pts.size(); ++k) {
        const bool forward = ComparePoints(pts[k], pts[k + 1]) < 0;
        pieces.push_back({forward ? &pts[k] : &pts[k + 1],
                          forward ? &pts[k + 1] : &pts[k], raw_[i].owner});
      }
    }
    std::sort(pieces.begin(), pieces.end(), PieceLess);
    for (size_t s = 0; s < pieces.size();) {
      SubSeg sub;
      sub.u = NodeId(*pieces[s].lo);
      sub.v = NodeId(*pieces[s].hi);
      size_t e = s;
      for (; e < pieces.size() && !PieceLess(pieces[s], pieces[e]); ++e) {
        sub.owners.push_back(pieces[e].owner);
      }
      std::sort(sub.owners.begin(), sub.owners.end());
      sub.owners.erase(std::unique(sub.owners.begin(), sub.owners.end()),
                       sub.owners.end());
      subsegs_.push_back(std::move(sub));
      s = e;
    }
    incident_.assign(node_points_.size(), {});
    for (size_t s = 0; s < subsegs_.size(); ++s) {
      incident_[subsegs_[s].u].push_back(static_cast<int>(s));
      incident_[subsegs_[s].v].push_back(static_cast<int>(s));
    }
  }

  // Uniform-grid broad phase: buckets candidate pairs by the cells their
  // padded bounding boxes overlap and feeds each candidate pair to the
  // exact narrow phase exactly once. The padding makes the double
  // approximation conservative, so no intersecting pair can be missed;
  // results are therefore identical to the all-pairs loop. Returns false
  // (caller falls back to all-pairs) when coordinates exceed the double
  // range.
  template <typename CutPair>
  bool GridCutPairs(const CutPair& cut_pair) {
    const size_t n = raw_.size();
    if (n < 2) return true;
    std::vector<GridEntry> entries(n);
    double wlox = 0, wloy = 0, whix = 0, whiy = 0;
    double sum_w = 0, sum_h = 0;
    for (size_t i = 0; i < n; ++i) {
      GridEntry& e = entries[i];
      e.lox = std::min(PadDown(raw_[i].a.x), PadDown(raw_[i].b.x));
      e.hix = std::max(PadUp(raw_[i].a.x), PadUp(raw_[i].b.x));
      e.loy = std::min(PadDown(raw_[i].a.y), PadDown(raw_[i].b.y));
      e.hiy = std::max(PadUp(raw_[i].a.y), PadUp(raw_[i].b.y));
      if (!std::isfinite(e.lox) || !std::isfinite(e.hix) ||
          !std::isfinite(e.loy) || !std::isfinite(e.hiy)) {
        return false;
      }
      if (i == 0) {
        wlox = e.lox; whix = e.hix; wloy = e.loy; whiy = e.hiy;
      } else {
        wlox = std::min(wlox, e.lox); whix = std::max(whix, e.hix);
        wloy = std::min(wloy, e.loy); whiy = std::max(whiy, e.hiy);
      }
      sum_w += e.hix - e.lox;
      sum_h += e.hiy - e.loy;
    }
    // Cell size near the average segment extent keeps both the number of
    // cells a segment overlaps and the bucket occupancy small on typical
    // workloads.
    const double cell =
        std::max({sum_w / n, sum_h / n,
                  std::max(whix - wlox, whiy - wloy) / 1024.0});
    auto axis_cells = [cell](double lo, double hi) {
      if (cell <= 0) return 1;
      const double span = (hi - lo) / cell;
      return std::max(1, std::min(1024, static_cast<int>(span) + 1));
    };
    const int nx = axis_cells(wlox, whix);
    const int ny = axis_cells(wloy, whiy);
    const double inv_cx = whix > wlox ? nx / (whix - wlox) : 0;
    const double inv_cy = whiy > wloy ? ny / (whiy - wloy) : 0;
    auto clampi = [](int v, int hi) { return std::max(0, std::min(v, hi)); };
    std::unordered_map<uint64_t, std::vector<int>> buckets;
    buckets.reserve(2 * n);
    for (size_t i = 0; i < n; ++i) {
      GridEntry& e = entries[i];
      e.ix0 = clampi(static_cast<int>((e.lox - wlox) * inv_cx), nx - 1);
      e.ix1 = clampi(static_cast<int>((e.hix - wlox) * inv_cx), nx - 1);
      e.iy0 = clampi(static_cast<int>((e.loy - wloy) * inv_cy), ny - 1);
      e.iy1 = clampi(static_cast<int>((e.hiy - wloy) * inv_cy), ny - 1);
      for (int iy = e.iy0; iy <= e.iy1; ++iy) {
        for (int ix = e.ix0; ix <= e.ix1; ++ix) {
          buckets[static_cast<uint64_t>(iy) * nx + ix].push_back(
              static_cast<int>(i));
        }
      }
    }
    // Pairwise scan within each bucket: closed-box overlap, then the
    // lowest-common-cell check so each pair is cut exactly once, then the
    // exact narrow phase.
    for (const auto& [key, segs] : buckets) {
      const int cx = static_cast<int>(key % nx);
      const int cy = static_cast<int>(key / nx);
      for (size_t a = 0; a + 1 < segs.size(); ++a) {
        const GridEntry& ea = entries[segs[a]];
        for (size_t b = a + 1; b < segs.size(); ++b) {
          const GridEntry& eb = entries[segs[b]];
          if (ea.hix < eb.lox || eb.hix < ea.lox || ea.hiy < eb.loy ||
              eb.hiy < ea.loy) {
            continue;
          }
          if (std::max(ea.ix0, eb.ix0) != cx ||
              std::max(ea.iy0, eb.iy0) != cy) {
            continue;
          }
          size_t i = static_cast<size_t>(segs[a]);
          size_t j = static_cast<size_t>(segs[b]);
          if (i > j) std::swap(i, j);
          cut_pair(i, j);
        }
      }
    }
    return true;
  }

  void MarkEssentialNodes() {
    essential_.assign(node_points_.size(), false);
    for (size_t v = 0; v < node_points_.size(); ++v) {
      const std::vector<int>& inc = incident_[v];
      if (inc.size() != 2) {
        essential_[v] = true;
        continue;
      }
      if (subsegs_[inc[0]].owners != subsegs_[inc[1]].owners) {
        essential_[v] = true;
      }
    }
    // Boundary cycles with no essential node get one deterministic anchor:
    // the lexicographically smallest node of the cycle.
    std::vector<bool> seen(node_points_.size(), false);
    for (size_t v = 0; v < node_points_.size(); ++v) {
      if (seen[v] || essential_[v]) continue;
      // Walk the degree-2 cycle through v.
      std::vector<int> cycle_nodes;
      int cur = static_cast<int>(v);
      int via = incident_[v][0];
      bool closed_cycle = true;
      while (true) {
        if (essential_[cur]) {
          closed_cycle = false;  // Chain attached to essential endpoints.
          break;
        }
        seen[cur] = true;
        cycle_nodes.push_back(cur);
        const SubSeg& sub = subsegs_[via];
        int next = sub.u == cur ? sub.v : sub.u;
        if (next == static_cast<int>(v)) break;
        const std::vector<int>& inc = incident_[next];
        // next is non-essential (degree 2) unless it ends the walk.
        if (essential_[next]) {
          closed_cycle = false;
          break;
        }
        via = (inc[0] == via) ? inc[1] : inc[0];
        cur = next;
      }
      if (!closed_cycle || cycle_nodes.empty()) continue;
      int anchor = cycle_nodes[0];
      for (int node : cycle_nodes) {
        if (node_points_[node] < node_points_[anchor]) anchor = node;
      }
      essential_[anchor] = true;
    }
  }

  void ChainEdges() {
    // Map node id -> vertex id for essential nodes.
    vertex_of_node_.assign(node_points_.size(), -1);
    for (size_t v = 0; v < node_points_.size(); ++v) {
      if (!essential_[v]) continue;
      CellComplex::Vertex vertex;
      vertex.point = node_points_[v];
      vertex_of_node_[v] = static_cast<int>(complex_.vertices_.size());
      complex_.vertices_.push_back(std::move(vertex));
    }
    std::vector<bool> used(subsegs_.size(), false);
    for (size_t v = 0; v < node_points_.size(); ++v) {
      if (!essential_[v]) continue;
      for (int start : incident_[v]) {
        if (used[start]) continue;
        // Walk from v through degree-2 non-essential nodes.
        CellComplex::Edge edge;
        edge.owners = subsegs_[start].owners;
        edge.chain.push_back(node_points_[v]);
        int cur_node = static_cast<int>(v);
        int cur_sub = start;
        while (true) {
          used[cur_sub] = true;
          const SubSeg& sub = subsegs_[cur_sub];
          int next = sub.u == cur_node ? sub.v : sub.u;
          edge.chain.push_back(node_points_[next]);
          if (essential_[next]) {
            cur_node = next;
            break;
          }
          const std::vector<int>& inc = incident_[next];
          TOPODB_CHECK(inc.size() == 2);
          cur_sub = (inc[0] == cur_sub) ? inc[1] : inc[0];
          cur_node = next;
        }
        complex_.edges_.push_back(std::move(edge));
      }
    }
    // Every subsegment must belong to some chain: anchors guarantee each
    // cycle has an essential node.
    for (bool u : used) TOPODB_CHECK(u);
  }

  void BuildDartsAndRotation() {
    auto& darts = complex_.darts_;
    darts.resize(2 * complex_.edges_.size());
    for (size_t e = 0; e < complex_.edges_.size(); ++e) {
      CellComplex::Edge& edge = complex_.edges_[e];
      edge.dart0 = static_cast<int>(2 * e);
      const std::vector<Point>& chain = edge.chain;
      TOPODB_CHECK(chain.size() >= 2);
      int d0 = static_cast<int>(2 * e);
      int d1 = d0 + 1;
      darts[d0].edge = static_cast<int>(e);
      darts[d0].twin = d1;
      darts[d0].origin = VertexAt(chain.front());
      darts[d0].direction = chain[1] - chain[0];
      darts[d1].edge = static_cast<int>(e);
      darts[d1].twin = d0;
      darts[d1].origin = VertexAt(chain.back());
      darts[d1].direction = chain[chain.size() - 2] - chain.back();
      complex_.vertices_[darts[d0].origin].darts.push_back(d0);
      complex_.vertices_[darts[d1].origin].darts.push_back(d1);
    }
    for (auto& vertex : complex_.vertices_) {
      std::sort(vertex.darts.begin(), vertex.darts.end(),
                [&](int a, int b) {
                  return CcwDirectionLess(darts[a].direction,
                                          darts[b].direction);
                });
      const size_t k = vertex.darts.size();
      for (size_t i = 0; i < k; ++i) {
        int d = vertex.darts[i];
        darts[d].next_ccw = vertex.darts[(i + 1) % k];
        darts[d].prev_ccw = vertex.darts[(i + k - 1) % k];
      }
    }
    // Face-on-left walk: arriving at the target vertex via twin(d), the
    // next boundary dart is the clockwise-next (ccw-previous) one.
    for (size_t d = 0; d < darts.size(); ++d) {
      darts[d].next_in_face = darts[darts[d].twin].prev_ccw;
    }
  }

  void TraceFaceCycles() {
    const auto& darts = complex_.darts_;
    cycle_of_dart_.assign(darts.size(), -1);
    for (size_t d0 = 0; d0 < darts.size(); ++d0) {
      if (cycle_of_dart_[d0] != -1) continue;
      const int cycle = static_cast<int>(cycle_reps_.size());
      cycle_reps_.push_back(static_cast<int>(d0));
      int d = static_cast<int>(d0);
      do {
        cycle_of_dart_[d] = cycle;
        d = darts[d].next_in_face;
      } while (d != static_cast<int>(d0));
    }
    // Geometry of each cycle: the closed walk's points and the sign of its
    // area. Exact areas are computed only when CycleAreaLess needs them.
    cycle_walks_.resize(cycle_reps_.size());
    cycle_area_sign_.assign(cycle_reps_.size(), 0);
    cycle_area2_.assign(cycle_reps_.size(), std::nullopt);
    for (size_t c = 0; c < cycle_reps_.size(); ++c) {
      std::vector<Point>& walk = cycle_walks_[c];
      int d = cycle_reps_[c];
      do {
        AppendDartChain(d, &walk);
        d = complex_.darts_[d].next_in_face;
      } while (d != cycle_reps_[c]);
      cycle_area_sign_[c] = WalkAreaSign(walk);
      TOPODB_CHECK_MSG(cycle_area_sign_[c] != 0, "degenerate face cycle");
    }
  }

  // Exact signed area (times 2) of cycle c, memoized.
  const Rational& ExactCycleArea(size_t c) {
    if (!cycle_area2_[c].has_value()) {
      const std::vector<Point>& walk = cycle_walks_[c];
      Rational area(0);
      for (size_t i = 0; i < walk.size(); ++i) {
        area += Cross(walk[i], walk[(i + 1) % walk.size()]);
      }
      cycle_area2_[c] = std::move(area);
    }
    return *cycle_area2_[c];
  }

  // Exact truth of area(a) < area(b); reached only for a hole inside two
  // or more outer cycles.
  bool CycleAreaLess(size_t a, size_t b) {
    return ExactCycleArea(a) < ExactCycleArea(b);
  }

  Status AssignCyclesToFaces() {
    // Outer (counterclockwise) cycles each found a bounded face; hole
    // (clockwise) cycles attach to the innermost outer cycle strictly
    // containing their leftmost point, or to the unbounded face.
    face_of_cycle_.assign(cycle_reps_.size(), -1);
    std::vector<size_t> outer_cycles;
    for (size_t c = 0; c < cycle_reps_.size(); ++c) {
      if (cycle_area_sign_[c] > 0) {
        face_of_cycle_[c] = static_cast<int>(complex_.faces_.size());
        outer_cycles.push_back(c);
        CellComplex::Face face;
        face.cycle_darts.push_back(cycle_reps_[c]);
        complex_.faces_.push_back(std::move(face));
      }
    }
    complex_.exterior_face_ = static_cast<int>(complex_.faces_.size());
    CellComplex::Face unbounded;
    unbounded.unbounded = true;
    complex_.faces_.push_back(std::move(unbounded));

    for (size_t c = 0; c < cycle_reps_.size(); ++c) {
      if (cycle_area_sign_[c] > 0) continue;
      const Point* leftmost = &cycle_walks_[c][0];
      for (const Point& p : cycle_walks_[c]) {
        if (p < *leftmost) leftmost = &p;
      }
      int best_face = complex_.exterior_face_;
      bool have_best = false;
      size_t best_cycle = 0;
      for (size_t oc : outer_cycles) {
        Polygon poly(cycle_walks_[oc]);
        if (poly.Locate(*leftmost) != PointLocation::kInterior) continue;
        if (!have_best || CycleAreaLess(oc, best_cycle)) {
          have_best = true;
          best_cycle = oc;
          best_face = face_of_cycle_[oc];
        }
      }
      face_of_cycle_[c] = best_face;
      complex_.faces_[best_face].cycle_darts.push_back(cycle_reps_[c]);
    }
    for (size_t d = 0; d < complex_.darts_.size(); ++d) {
      complex_.darts_[d].face = face_of_cycle_[cycle_of_dart_[d]];
    }
    return Status::OK();
  }

  Status PropagateFaceLabels() {
    const size_t num_regions = complex_.region_names_.size();
    const CellLabel all_exterior(num_regions, Sign::kExterior);
    std::vector<bool> labeled(complex_.faces_.size(), false);
    complex_.faces_[complex_.exterior_face_].label = all_exterior;
    labeled[complex_.exterior_face_] = true;
    std::queue<int> queue;
    queue.push(complex_.exterior_face_);
    size_t visited = 1;
    // Scratch label reused across darts: the copy-assign below reuses its
    // capacity, avoiding an allocation per boundary dart.
    CellLabel expected;
    while (!queue.empty()) {
      int f = queue.front();
      queue.pop();
      const CellLabel& label = complex_.faces_[f].label;
      for (int rep : complex_.faces_[f].cycle_darts) {
        int d = rep;
        do {
          const CellComplex::Dart& dart = complex_.darts_[d];
          int g = complex_.darts_[dart.twin].face;
          expected = label;
          for (int owner : complex_.edges_[dart.edge].owners) {
            expected[owner] = expected[owner] == Sign::kInterior
                                  ? Sign::kExterior
                                  : Sign::kInterior;
          }
          if (!labeled[g]) {
            complex_.faces_[g].label = expected;
            labeled[g] = true;
            ++visited;
            queue.push(g);
          } else if (complex_.faces_[g].label != expected) {
            return Status::Internal("inconsistent face labels");
          }
          d = dart.next_in_face;
        } while (d != rep);
      }
    }
    if (visited != complex_.faces_.size()) {
      return Status::Internal("face label propagation did not reach all "
                              "faces");
    }
    return Status::OK();
  }

  void ComputeEdgeAndVertexLabels() {
    // For every region the edge does not bound, the two adjacent faces
    // agree by construction (PropagateFaceLabels derives the right label
    // from the left by flipping exactly the owner entries), so the edge
    // label is the left face's label with the owners set to boundary —
    // a vector copy plus O(owners) work instead of a loop over all regions.
    for (size_t e = 0; e < complex_.edges_.size(); ++e) {
      CellComplex::Edge& edge = complex_.edges_[e];
      const CellLabel& left = complex_.faces_[complex_.darts_[2 * e].face]
                                  .label;
      const CellLabel& right =
          complex_.faces_[complex_.darts_[2 * e + 1].face].label;
      edge.label = left;
      for (int owner : edge.owners) {
        TOPODB_CHECK(left[owner] != right[owner]);
        edge.label[owner] = Sign::kBoundary;
      }
    }
    // A vertex is on r's boundary iff some incident edge is — and an edge is
    // on r's boundary iff r owns it. For every other region all incident
    // edges agree (the faces around the vertex coincide on r), so the first
    // edge's label supplies the ambient values and the remaining edges only
    // contribute their owner entries.
    for (auto& vertex : complex_.vertices_) {
      const CellComplex::Edge& first =
          complex_.edges_[complex_.darts_[vertex.darts[0]].edge];
      vertex.label = first.label;
      for (size_t k = 1; k < vertex.darts.size(); ++k) {
        const CellComplex::Edge& edge =
            complex_.edges_[complex_.darts_[vertex.darts[k]].edge];
        for (int owner : edge.owners) {
          vertex.label[owner] = Sign::kBoundary;
        }
      }
    }
  }

  int VertexAt(const Point& p) const {
    auto it = node_ids_.find(p);
    TOPODB_CHECK(it != node_ids_.end());
    int vertex = vertex_of_node_[it->second];
    TOPODB_CHECK(vertex >= 0);
    return vertex;
  }

  // Appends the dart's chain geometry in walk order, excluding the final
  // point (it is the first point of the next dart in the face walk).
  void AppendDartChain(int d, std::vector<Point>* out) const {
    const CellComplex::Edge& edge = complex_.edges_[complex_.darts_[d].edge];
    const std::vector<Point>& chain = edge.chain;
    if (d % 2 == 0) {
      for (size_t i = 0; i + 1 < chain.size(); ++i) out->push_back(chain[i]);
    } else {
      for (size_t i = chain.size(); i-- > 1;) out->push_back(chain[i]);
    }
  }

  void FlushMetrics() {
    MetricsRegistry* m = options_.metrics;
    if (m == nullptr) return;
    m->counter("arrangement.builds")->Add(1);
    m->counter("arrangement.candidate_pairs")->Add(candidate_pairs_);
    m->counter("arrangement.exact_intersections")->Add(exact_intersections_);
    if (grid_fallback_) m->counter("arrangement.grid_fallbacks")->Add(1);
    m->histogram("arrangement.vertices")
        ->Record(static_cast<double>(complex_.vertices_.size()));
    m->histogram("arrangement.edges")
        ->Record(static_cast<double>(complex_.edges_.size()));
    m->histogram("arrangement.faces")
        ->Record(static_cast<double>(complex_.faces_.size()));
    // Predicate filter effectiveness for this build (deltas of the
    // thread-local tallies; builds run single-threaded so the deltas are
    // exactly this build's). All zero in exact mode.
    const PredicateFilterStats& now = LocalPredicateFilterStats();
    m->counter("predicates.static_hits")
        ->Add(now.static_hits - pred_start_.static_hits);
    m->counter("predicates.exact_fallbacks")
        ->Add(now.exact_fallbacks - pred_start_.exact_fallbacks);
  }

  const SpatialInstance& instance_;
  const ArrangementOptions options_;
  CellComplex complex_;

  // Broad-phase effectiveness tallies; plain integers, flushed to the
  // registry once per build.
  uint64_t candidate_pairs_ = 0;
  uint64_t exact_intersections_ = 0;
  bool grid_fallback_ = false;
  PredicateFilterStats pred_start_;

  std::vector<RawSeg> raw_;
  // Node ids are assigned by insertion order, so the (unordered) lookup
  // structure has no influence on the complex's numbering.
  std::unordered_map<Point, int, PointHash> node_ids_;
  std::vector<Point> node_points_;
  std::vector<SubSeg> subsegs_;
  std::vector<std::vector<int>> incident_;
  std::vector<bool> essential_;
  std::vector<int> vertex_of_node_;

  std::vector<int> cycle_of_dart_;
  std::vector<int> cycle_reps_;
  std::vector<std::vector<Point>> cycle_walks_;
  // Per-cycle signed area (times 2): its sign, and the exact rational,
  // computed on first use.
  std::vector<int> cycle_area_sign_;
  std::vector<std::optional<Rational>> cycle_area2_;
  std::vector<int> face_of_cycle_;
};

Result<CellComplex> CellComplex::Build(const SpatialInstance& instance) {
  return Build(instance, ArrangementOptions{});
}

Result<CellComplex> CellComplex::Build(const SpatialInstance& instance,
                                       const ArrangementOptions& options) {
  CellComplexBuilder builder(instance, options);
  return builder.Run();
}

int CellComplex::region_index(const std::string& name) const {
  auto it = std::lower_bound(region_names_.begin(), region_names_.end(), name);
  if (it == region_names_.end() || *it != name) return -1;
  return static_cast<int>(it - region_names_.begin());
}

std::pair<int, int> CellComplex::EdgeEndpoints(int edge) const {
  const int d0 = edges_[edge].dart0;
  return {darts_[d0].origin, darts_[darts_[d0].twin].origin};
}

std::pair<int, int> CellComplex::EdgeFaces(int edge) const {
  const int d0 = edges_[edge].dart0;
  return {darts_[d0].face, darts_[darts_[d0].twin].face};
}

std::vector<int> CellComplex::VertexComponents() const {
  std::vector<int> parent(vertices_.size());
  for (size_t i = 0; i < parent.size(); ++i) parent[i] = static_cast<int>(i);
  std::function<int(int)> find = [&](int x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (size_t e = 0; e < edges_.size(); ++e) {
    auto [u, v] = EdgeEndpoints(static_cast<int>(e));
    parent[find(u)] = find(v);
  }
  std::vector<int> component(vertices_.size());
  std::map<int, int> remap;
  for (size_t i = 0; i < vertices_.size(); ++i) {
    int root = find(static_cast<int>(i));
    auto [it, inserted] = remap.try_emplace(root, static_cast<int>(remap.size()));
    component[i] = it->second;
  }
  return component;
}

int CellComplex::SkeletonComponentCount() const {
  if (vertices_.empty()) return 0;
  std::vector<int> component = VertexComponents();
  return *std::max_element(component.begin(), component.end()) + 1;
}

bool CellComplex::IsConnected() const {
  return SkeletonComponentCount() <= 1;
}

bool CellComplex::IsSimple() const {
  for (const Face& face : faces_) {
    if (face.cycle_darts.size() != 1) return false;
    std::set<int> seen;
    int rep = face.cycle_darts[0];
    int d = rep;
    do {
      if (!seen.insert(darts_[d].origin).second) return false;
      d = darts_[d].next_in_face;
    } while (d != rep);
  }
  return true;
}

Rational CellComplex::CycleArea2(int dart) const {
  std::vector<Point> walk;
  int d = dart;
  do {
    const Edge& edge = edges_[darts_[d].edge];
    const std::vector<Point>& chain = edge.chain;
    if (d % 2 == 0) {
      for (size_t i = 0; i + 1 < chain.size(); ++i) walk.push_back(chain[i]);
    } else {
      for (size_t i = chain.size(); i-- > 1;) walk.push_back(chain[i]);
    }
    d = darts_[d].next_in_face;
  } while (d != dart);
  Rational area(0);
  for (size_t i = 0; i < walk.size(); ++i) {
    area += Cross(walk[i], walk[(i + 1) % walk.size()]);
  }
  return area;
}

std::vector<int> CellComplex::FaceCycle(int dart) const {
  std::vector<int> cycle;
  int d = dart;
  do {
    cycle.push_back(d);
    d = darts_[d].next_in_face;
  } while (d != dart);
  return cycle;
}

std::string CellComplex::DebugString() const {
  std::ostringstream os;
  os << "CellComplex over {";
  for (size_t i = 0; i < region_names_.size(); ++i) {
    if (i) os << ", ";
    os << region_names_[i];
  }
  os << "}: " << vertices_.size() << " vertices, " << edges_.size()
     << " edges, " << faces_.size() << " faces (exterior f"
     << exterior_face_ << ")\n";
  for (size_t v = 0; v < vertices_.size(); ++v) {
    os << "  v" << v << " @ " << vertices_[v].point.ToString() << " ["
       << LabelString(vertices_[v].label) << "] degree "
       << vertices_[v].darts.size() << "\n";
  }
  for (size_t e = 0; e < edges_.size(); ++e) {
    auto [u, v] = EdgeEndpoints(static_cast<int>(e));
    auto [f, g] = EdgeFaces(static_cast<int>(e));
    os << "  e" << e << " v" << u << "-v" << v << " ["
       << LabelString(edges_[e].label) << "] faces f" << f << "|f" << g
       << "\n";
  }
  for (size_t f = 0; f < faces_.size(); ++f) {
    os << "  f" << f << " [" << LabelString(faces_[f].label) << "]"
       << (faces_[f].unbounded ? " unbounded" : "") << " cycles="
       << faces_[f].cycle_darts.size() << "\n";
  }
  return os.str();
}

}  // namespace topodb
