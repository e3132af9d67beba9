package repro.core

import repro.eval.Instrument
import repro.graph.LocalGraph

/** A candidate community `G0` (re-indexed) with the query indices and the
  * per-vertex butterfly degrees computed during Algorithm 2 — passed to the
  * refinement loop so LP-BCC can reuse the count instead of re-running
  * Algorithm 3.
  */
final case class Candidate(g0: LocalGraph, ql: Int, qr: Int, chi: Array[Long])

/** Driver-side Algorithm 2 (finding the maximal candidate `G0`) and the
  * parameter defaults the paper recommends (k1/k2 = query coreness).
  */
object LocalBCC {

  /** Find the maximal connected (k1,k2,b)-BCC candidate `G0` containing the
    * queries (Algorithm 2): the component of each query in the k-core of its
    * label-induced subgraph (one BFS over label coreness each), the induced
    * candidate re-indexed in vertex order, then the bipartite butterfly check
    * on it. Work is proportional to `G0`, not to `g`.
    */
  def findG0(
      g: LocalGraph,
      qlId: Long,
      qrId: Long,
      params: BCCParams,
      inst: Instrument = new Instrument): Option[Candidate] = {
    val ql = g.indexOf.getOrElse(qlId, return None)
    val qr = g.indexOf.getOrElse(qrId, return None)
    if (g.labels(ql) == g.labels(qr)) return None
    val leftComp = g.labelCoreComponent(ql, params.k1)
    if (leftComp.isEmpty) return None
    val rightComp = g.labelCoreComponent(qr, params.k2)
    if (rightComp.isEmpty) return None
    val (g0, verts) = candidateGraph(g, Seq(leftComp, rightComp))

    // butterfly constraint on the bipartite graph between the two components
    // (one Algorithm 3 invocation — counted, like the paper's Table 4 does)
    val lLab = g.labels(ql)
    val rLab = g.labels(qr)
    val isLeft = new Array[Boolean](g0.n)
    val isRight = new Array[Boolean](g0.n)
    var v = 0
    while (v < g0.n) { isLeft(v) = g0.labels(v) == lLab; isRight(v) = g0.labels(v) == rLab; v += 1 }
    inst.butterflyCountCalls += 1
    val chi = g0.butterflyDegrees(isLeft, isRight)
    if (BCCEngine.maxOn(chi, isLeft) < params.b || BCCEngine.maxOn(chi, isRight) < params.b)
      return None
    def at(v: Int): Int = java.util.Arrays.binarySearch(verts, v) // v's index in G0
    Some(Candidate(g0, at(ql), at(qr), chi))
  }

  /** The subgraph induced by the union of disjoint vertex sets, re-indexed in
    * vertex order, and its vertices (ascending: `g0` vertex `i` is `verts(i)`).
    */
  private[core] def candidateGraph(g: LocalGraph, parts: Seq[Array[Int]]): (LocalGraph, Array[Int]) = {
    val verts = Array.concat(parts: _*)
    java.util.Arrays.sort(verts)
    (g.inducedOn(verts), verts)
  }

  /** Paper default parameters: k1/k2 = coreness of each query within its
    * label-induced subgraph (two lookups in [[LocalGraph.labelCoreness]]),
    * butterfly threshold `b`.
    */
  def defaultParams(g: LocalGraph, qlId: Long, qrId: Long, b: Int = 1): BCCParams = {
    val core = g.labelCoreness()
    BCCParams(math.max(1, core(g.indexOf(qlId))), math.max(1, core(g.indexOf(qrId))), b)
  }
}
