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
    * queries (Algorithm 2): per-label k-core peel, keep the component of
    * each query, bipartite butterfly check, then return the induced
    * candidate as a re-indexed graph plus the queries' new indices.
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
    val lLab = g.labels(ql)
    val rLab = g.labels(qr)

    val leftMask = new Array[Boolean](g.n)
    val rightMask = new Array[Boolean](g.n)
    var v = 0
    while (v < g.n) { leftMask(v) = g.labels(v) == lLab; rightMask(v) = g.labels(v) == rLab; v += 1 }
    val leftCore = g.kCoreMask(params.k1, leftMask)
    if (!leftCore(ql)) return None
    val rightCore = g.kCoreMask(params.k2, rightMask)
    if (!rightCore(qr)) return None
    val leftComp = g.componentOf(ql, leftCore)
    val rightComp = g.componentOf(qr, rightCore)

    // butterfly constraint on the bipartite graph between the two components
    // (one Algorithm 3 invocation — counted, like the paper's Table 4 does)
    inst.butterflyCountCalls += 1
    val chi = g.butterflyDegrees(leftComp, rightComp)
    if (BCCEngine.maxOn(chi, leftComp) < params.b || BCCEngine.maxOn(chi, rightComp) < params.b)
      return None

    val keep = new Array[Boolean](g.n)
    v = 0
    while (v < g.n) { keep(v) = leftComp(v) || rightComp(v); v += 1 }
    val g0 = g.induced(keep)
    val chi0 = Array.tabulate(g0.n)(v => chi(g.indexOf(g0.ids(v))))
    Some(Candidate(g0, g0.indexOf(qlId), g0.indexOf(qrId), chi0))
  }

  /** Paper default parameters: k1/k2 = coreness of each query within its
    * label-induced subgraph, butterfly threshold `b`.
    */
  def defaultParams(g: LocalGraph, qlId: Long, qrId: Long, b: Int = 1): BCCParams = {
    val ql = g.indexOf(qlId)
    val qr = g.indexOf(qrId)
    def labelCoreness(q: Int): Int = g.coreness(g.labels.map(_ == g.labels(q)))(q)
    BCCParams(math.max(1, labelCoreness(ql)), math.max(1, labelCoreness(qr)), b)
  }
}
