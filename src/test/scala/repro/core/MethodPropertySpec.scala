package repro.core

import org.scalacheck.Gen
import org.scalacheck.Prop.{forAllNoShrink, propBoolean}
import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{GraphGens, LocalGraph}

/** Differential properties of the search methods on random labeled graphs
  * (2-4 labels, k1 and k2 in 0..4, b in 0..3, feasible or not): Algorithm 2
  * against a reference built from whole-graph k-core masks, Online-BCC,
  * LP-BCC and fast and naive 2-label mBCC against one another, and the
  * validity of L2P-BCC's answers.
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

  test("property: findG0 equals the k-core mask and component reference") {
    GraphGens.check(forAllNoShrink(queryCase) { case (g, ql, qr, p) =>
      val got = LocalBCC.findG0(g, ql, qr, p).map { c =>
        (c.g0.ids.toSeq, c.g0.adj.map(_.toSeq).toSeq, c.chi.toSeq, c.ql, c.qr)
      }
      (got == refFindG0(g, ql, qr, p)) :| s"$p queries ($ql, $qr): got $got"
    }, cases = 1000)
  }

  test("property: Online, LP and 2-label mBCC agree and every answer is a valid BCC") {
    GraphGens.check(forAllNoShrink(queryCase) { case (g, ql, qr, p) =>
      val online = OnlineBCC.run(g, ql, qr, p, computeDiameter = false)
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
      (differ.isEmpty && violations.isEmpty) :|
        s"$p queries ($ql, $qr): ${answers.mkString("; ")} differ=$differ violations=$violations"
    }, cases = 1000)
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
