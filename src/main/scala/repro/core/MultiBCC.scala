package repro.core

import repro.eval.Instrument
import repro.graph.LocalGraph

/** Section 7: multi-labeled BCC search (Definitions 7-8, Algorithm 9).
  *
  * An mBCC has m labeled groups, each a k_i-core, and the label meta-graph —
  * one node per label, an edge whenever the bipartite graph between two
  * groups has a leader vertex on each side with butterfly degree >= b — must
  * be connected (*cross-group connectivity*). The search is Algorithm 1 over
  * m groups: [[Refine]] on a [[BCCEngine]] built from the m-label candidate.
  */
object MultiBCC {

  /** Result of a multi-labeled search. */
  final case class MBCCResult(
      vertexIds: Set[Long],
      labels: Seq[String],
      queryDistance: Int,
      rounds: Int)

  /** Algorithm 9. `queryIds` must carry pairwise distinct labels; `ks(i)`
    * is the core requirement for the label of `queryIds(i)`. A negative
    * `ks(i)` or `b` is an `IllegalArgumentException`.
    *
    * @param fast refine in LP-BCC's mode (Algorithm 5 distances, per-pair
    *             Algorithm 6/7 leaders, a pair recounted only when a leader
    *             dies or drops below b) instead of Online-BCC's; both modes
    *             return the same community.
    */
  def run(
      g: LocalGraph,
      queryIds: Seq[Long],
      ks: Seq[Int],
      b: Int,
      inst: Instrument = new Instrument,
      fast: Boolean = false): Option[MBCCResult] = inst.timeTotal {
    require(queryIds.length >= 2 && queryIds.length == ks.length, "mBCC needs m >= 2 queries")
    require(ks.forall(_ >= 0) && b >= 0, s"mBCC parameters must not be negative: ks $ks, b $b")
    val qg = queryIds.map(id => g.indexOf.getOrElse(id, return None))
    val labs = qg.map(g.labels)
    if (labs.distinct.length != labs.length) return None

    // G0: per-label k_i-core component containing q_i (Alg. 9 line 1),
    // induced and re-indexed; the search runs on it, not on g
    val comps = qg.indices.map { i =>
      val c = g.labelCoreComponent(qg(i), ks(i))
      if (c.isEmpty) return None
      c
    }
    val (g0, verts) = LocalBCC.candidateGraph(g, comps)
    val e = new BCCEngine(g0, qg.map(java.util.Arrays.binarySearch(verts, _)).toArray, ks.toArray, b, inst)
    e.fullButterflyCount() // every label pair counted once on G0
    Refine.run(e, if (fast) Refine.FastLP else Refine.Naive, computeDiameter = false)
      .map(r => MBCCResult(r.vertexIds, labs, r.queryDistance, r.rounds))
  }
}
