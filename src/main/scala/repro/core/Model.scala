package repro.core

import repro.graph.LocalGraph

/** Parameters of a (k1, k2, b)-BCC query (paper Def. 4 / Problem 1); none
  * may be negative.
  */
final case class BCCParams(k1: Int, k2: Int, b: Int) {
  require(k1 >= 0 && k2 >= 0 && b >= 0, s"BCC parameters must not be negative: $this")
}

/** A discovered butterfly-core community.
  *
  * @param vertexIds     external ids of the community vertices
  * @param leftLabel     label of the `q_l` side
  * @param rightLabel    label of the `q_r` side
  * @param queryDistance max over community vertices of the distance to the
  *                      nearer..farther query vertex (Def. 5) in the community
  * @param diameter      exact diameter of the community subgraph
  * @param rounds        number of deletion rounds the search performed
  */
final case class BCCResult(
    vertexIds: Set[Long],
    leftLabel: String,
    rightLabel: String,
    queryDistance: Int,
    diameter: Int,
    rounds: Int)

/** Structural validation of BCC answers against Def. 4 + Problem 1. */
object Model {

  /** Returns all violated conditions (empty = valid `(k1,k2,b)`-BCC
    * containing the queries, connected, exactly two labels).
    */
  def violations(
      g: LocalGraph,
      community: Set[Long],
      qlId: Long,
      qrId: Long,
      params: BCCParams): List[String] = {
    val errs = scala.collection.mutable.ListBuffer[String]()
    if (!community.contains(qlId)) errs += s"missing query vertex $qlId"
    if (!community.contains(qrId)) errs += s"missing query vertex $qrId"
    if (errs.nonEmpty) return errs.toList

    val sub = g.inducedByIds(community)
    val ql = sub.indexOf(qlId)
    val qr = sub.indexOf(qrId)
    val leftLabel = sub.labels(ql)
    val rightLabel = sub.labels(qr)
    if (leftLabel == rightLabel) errs += "query vertices share a label"
    val extra = sub.labelSet -- Set(leftLabel, rightLabel)
    if (extra.nonEmpty) errs += s"extra labels present: $extra"

    // connectivity of the whole community
    val dist = sub.bfs(Seq(ql))
    if (dist.exists(_ == LocalGraph.Inf)) errs += "community is not connected"

    // per-side k-core on the induced label subgraphs
    val isLeft = Array.tabulate(sub.n)(v => sub.labels(v) == leftLabel)
    val isRight = Array.tabulate(sub.n)(v => sub.labels(v) == rightLabel)
    for (v <- 0 until sub.n) {
      val k = if (isLeft(v)) params.k1 else params.k2
      val sameLabelDeg = sub.neighbors(v).count(u => sub.labels(u) == sub.labels(v))
      if (sameLabelDeg < k)
        errs += s"vertex ${sub.ids(v)} has intra-label degree $sameLabelDeg < $k"
    }

    // leader pair: one vertex per side with butterfly degree >= b
    val chi = sub.butterflyDegrees(isLeft, isRight)
    val maxL = BCCEngine.maxOn(chi, isLeft)
    val maxR = BCCEngine.maxOn(chi, isRight)
    if (maxL < params.b) errs += s"no left leader: max chi $maxL < b=${params.b}"
    if (maxR < params.b) errs += s"no right leader: max chi $maxR < b=${params.b}"
    errs.toList
  }

  /** True iff `community` is a valid connected BCC containing the queries. */
  def isValid(
      g: LocalGraph,
      community: Set[Long],
      qlId: Long,
      qrId: Long,
      params: BCCParams): Boolean =
    violations(g, community, qlId, qrId, params).isEmpty
}
