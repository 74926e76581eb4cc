#ifndef TOPODB_TOPODB_H_
#define TOPODB_TOPODB_H_

// Umbrella header: the public API of TopoDB, a library for topological
// queries in spatial databases implementing Papadimitriou, Suciu & Vianu
// (PODS 1996 / JCSS 1999). See README.md for the architecture overview.

#include "src/algebraic/polynomial.h"   // Alg regions: P(x, y) > 0.
#include "src/algebraic/trace.h"        // Alg -> Poly tracing.
#include "src/arrangement/cell_complex.h"  // The cell complex (Sec 3).
#include "src/base/bigint.h"
#include "src/base/rational.h"
#include "src/base/status.h"
#include "src/base/threading.h"       // Shared worker-count resolution.
#include "src/embed/embed.h"            // Theorem 3.5 reconstruction.
#include "src/fourint/four_intersection.h"  // Egenhofer relations (Fig 2).
#include "src/geom/point.h"
#include "src/geom/polygon.h"
#include "src/invariant/canonical.h"    // T_I and isomorphism (Thm 3.4).
#include "src/invariant/data.h"
#include "src/invariant/graph_iso.h"    // G_I comparisons (Figs 6, 7).
#include "src/invariant/s_invariant.h"  // Rect* S-invariant (Fig 14).
#include "src/invariant/validate.h"     // Labeled planar graphs (Thm 3.8).
#include "src/obs/deadline.h"           // Deadline/CancelToken for serving.
#include "src/obs/metrics.h"            // Counters/histograms/registry.
#include "src/pipeline/batch.h"         // Batched invariant pipeline.
#include "src/pipeline/invariant_cache.h"  // Canonical-string cache.
#include "src/query/eval.h"             // FO(Region, Region') evaluation.
#include "src/query/parser.h"
#include "src/query/rect_eval.h"    // FO(Rect, Rect) (Thm 5.8, Fig 13).
#include "src/reason/network.h"         // 4-intersection inference.
#include "src/region/fixtures.h"        // The paper's example instances.
#include "src/region/instance.h"
#include "src/region/io.h"          // Text serialization of instances.
#include "src/region/region.h"
#include "src/region/transform.h"       // Groups S, L and affine maps.
#include "src/thematic/relation.h"      // Mini relational engine.
#include "src/thematic/thematic.h"      // thematic(I) (Cor 3.7, Fig 9).
#include "src/workload/generators.h"

#endif  // TOPODB_TOPODB_H_
