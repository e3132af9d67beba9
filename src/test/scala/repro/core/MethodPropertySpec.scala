package repro.core

import org.scalacheck.Gen
import org.scalacheck.Prop.{forAllNoShrink, propBoolean}
import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{GraphGens, LocalGraph}

/** Differential properties of the search methods on random labeled graphs
  * (2-4 labels, k1 and k2 in 0..4, b in 0..3, feasible or not): Algorithm 2
  * against a reference built from whole-graph k-core masks, Online-BCC
  * against a plain whole-graph Algorithm 1, Online-BCC, LP-BCC and fast and
  * naive 2-label mBCC against one another, and the validity of L2P-BCC's
  * answers.
  */
class MethodPropertySpec extends AnyFunSuite {

  /** A graph, query ids of labels L0 and L1 (between which the hub and
    * biclique shapes plant butterflies) and the parameters.
    */
  private val queryCase: Gen[(LocalGraph, Long, Long, BCCParams)] = for {
    g <- GraphGens.labeledGraph.suchThat(g => g.labelSet("L0") && g.labelSet("L1"))
    ql <- Gen.oneOf((0 until g.n).filter(g.labels(_) == "L0"))
    qr <- Gen.oneOf((0 until g.n).filter(g.labels(_) == "L1"))
    k1 <- Gen.choose(0, 4)
    k2 <- Gen.choose(0, 4)
    b <- Gen.choose(0, 3)
  } yield (g, g.ids(ql), g.ids(qr), BCCParams(k1, k2, b))

  /** Algorithm 2 as whole-graph masks: each side's k-core by `kCoreMask`,
    * the query's component by `componentOf`, the butterfly check over the
    * two components, then G0 as (ids, adjacency, chi, ql, qr) in vertex order.
    */
  private def refFindG0(g: LocalGraph, qlId: Long, qrId: Long, p: BCCParams)
      : Option[(Seq[Long], Seq[Seq[Int]], Seq[Long], Int, Int)] = {
    val ql = g.indexOf(qlId)
    val qr = g.indexOf(qrId)
    val leftCore = g.kCoreMask(p.k1, GraphGens.labelMask(g, g.labels(ql)))
    val rightCore = g.kCoreMask(p.k2, GraphGens.labelMask(g, g.labels(qr)))
    if (!leftCore(ql) || !rightCore(qr)) return None
    val left = g.componentOf(ql, leftCore)
    val right = g.componentOf(qr, rightCore)
    val chi = g.butterflyDegrees(left, right)
    val kept = (0 until g.n).filter(v => left(v) || right(v))
    def maxChi(side: Array[Boolean]): Long = kept.filter(side).map(chi).max
    if (maxChi(left) < p.b || maxChi(right) < p.b) return None
    val adj = kept.map(v => g.neighbors(v).toSeq.filter(kept.contains).map(kept.indexOf))
    Some((kept.map(g.ids), adj, kept.map(chi), kept.indexOf(ql), kept.indexOf(qr)))
  }

  /** Algorithm 1 (Online-BCC) written plainly from the paper, on
    * [[refFindG0]]'s G0: each round a BFS from each query over the alive
    * vertices; stop once the queries are apart; the round's query distance
    * is the largest over the alive vertices, and the alive set is the best
    * snapshot while it is finite and smaller than every earlier one; delete
    * every vertex at it (stop if a query is among them), re-peel each side
    * to its k-core with `kCoreMask` (stop if a query goes) and recount the
    * butterflies (stop once a side falls below b). Returns the best
    * snapshot's ids, its query distance and the rounds run, and whether the
    * queries fell apart.
    */
  private def refOnline(g: LocalGraph, qlId: Long, qrId: Long, p: BCCParams)
      : (Option[(Set[Long], Int, Int)], Boolean) = {
    val g0 = refFindG0(g, qlId, qrId, p).getOrElse(return (None, false))._1
    val ql = g.indexOf(qlId)
    val qr = g.indexOf(qrId)
    val isLeft = GraphGens.labelMask(g, g.labels(ql))
    val isRight = GraphGens.labelMask(g, g.labels(qr))
    var alive = Array.tabulate(g.n)(v => g0.contains(g.ids(v)))
    var best: Option[(Set[Long], Int)] = None
    var rounds = 0
    var apart = false
    var go = true
    while (go) {
      rounds += 1
      val dl = g.bfs(Seq(ql), alive)
      val dr = g.bfs(Seq(qr), alive)
      if (dl(qr) == LocalGraph.Inf) { apart = true; go = false }
      else {
        val verts = (0 until g.n).filter(alive)
        val qd = verts.map(v => math.max(dl(v), dr(v))).max
        if (qd != LocalGraph.Inf && best.forall(qd < _._2)) best = Some((verts.map(g.ids).toSet, qd))
        val batch = verts.filter(v => math.max(dl(v), dr(v)) == qd)
        if (batch.contains(ql) || batch.contains(qr)) go = false
        else {
          val rest = alive.clone()
          batch.foreach(rest(_) = false)
          val left = g.kCoreMask(p.k1, Array.tabulate(g.n)(v => rest(v) && isLeft(v)))
          val right = g.kCoreMask(p.k2, Array.tabulate(g.n)(v => rest(v) && isRight(v)))
          if (!left(ql) || !right(qr)) go = false
          else {
            alive = Array.tabulate(g.n)(v => left(v) || right(v))
            val chi = g.butterflyDegrees(left, right)
            def maxChi(side: Array[Boolean]): Long = (0 until g.n).filter(side).map(chi).max
            if (maxChi(left) < p.b || maxChi(right) < p.b) go = false
          }
        }
      }
    }
    (best.map { case (ids, qd) => (ids, qd, rounds) }, apart)
  }

  test("property: findG0 equals the k-core mask and component reference") {
    GraphGens.check(forAllNoShrink(queryCase) { case (g, ql, qr, p) =>
      val got = LocalBCC.findG0(g, ql, qr, p).map { c =>
        (c.g0.ids.toSeq, c.g0.adj.map(_.toSeq).toSeq, c.chi.toSeq, c.ql, c.qr)
      }
      (got == refFindG0(g, ql, qr, p)) :| s"$p queries ($ql, $qr): got $got"
    }, cases = 1000)
  }

  test("property: Online, LP and 2-label mBCC agree and every answer is a valid BCC") {
    var apart = 0 // cases whose queries fall apart during refinement
    GraphGens.check(forAllNoShrink(queryCase) { case (g, ql, qr, p) =>
      val online = OnlineBCC.run(g, ql, qr, p, computeDiameter = false)
      val (ref, refApart) = refOnline(g, ql, qr, p)
      if (refApart) apart += 1
      val got = online.map(r => (r.vertexIds, r.queryDistance, r.rounds))
      val lp = LPBCC.run(g, ql, qr, p, computeDiameter = false)
      val answers = Seq(
        "online" -> online.map(r => (r.vertexIds, r.queryDistance)),
        "lp" -> lp.map(r => (r.vertexIds, r.queryDistance))) ++
        Seq(false, true).map { fast =>
          s"mbcc fast=$fast" -> MultiBCC.run(g, Seq(ql, qr), Seq(p.k1, p.k2), p.b, fast = fast)
            .map(r => (r.vertexIds, r.queryDistance))
        }
      val differ = answers.filter(_._2 != answers.head._2).map(_._1)
      val violations = online.toList.flatMap(r => Model.violations(g, r.vertexIds, ql, qr, p))
      (got == ref && differ.isEmpty && violations.isEmpty) :|
        s"$p queries ($ql, $qr): online $got reference $ref; ${answers.mkString("; ")} differ=$differ violations=$violations"
    }, cases = 1000)
    // the state in which Online's loop stops on disconnected queries (6 of
    // the 1000 cases from this seed)
    assert(apart >= 5, s"the queries fell apart in only $apart cases")
  }

  test("property: every L2P-BCC answer is a valid BCC, small eta included") {
    val cases = for { c <- queryCase; eta <- Gen.choose(1, 30) } yield (c, eta)
    GraphGens.check(forAllNoShrink(cases) { case ((g, ql, qr, p), eta) =>
      val l2p = L2PBCC.run(g, ql, qr, p, BCIndex.build(g), eta = eta, computeDiameter = false)
      val violations = l2p.toList.flatMap(r => Model.violations(g, r.vertexIds, ql, qr, p))
      violations.isEmpty :| s"$p queries ($ql, $qr) eta $eta: ${l2p.map(_.vertexIds)} violations=$violations"
    }, cases = 1000)
  }
}
