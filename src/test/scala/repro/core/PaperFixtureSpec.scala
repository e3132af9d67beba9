package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.eval.Instrument
import repro.graph.LocalGraph

/** Tests pinned to the paper's own worked examples: the Figure 3 graph with
  * Table 2's distance sets and Examples 4-6, the Figure 1/2 community, and
  * the Theorem 1 reduction gadget.
  */
class PaperFixtureSpec extends AnyFunSuite {
  import PaperGraphs.Fig3Ids._

  private def fig3 = PaperGraphs.figure3

  private def distSets(g: LocalGraph, from: Long): Map[Int, Set[Long]] = {
    val d = g.bfs(Seq(g.indexOf(from)))
    (0 until g.n)
      .filter(v => d(v) != LocalGraph.Inf && d(v) > 0)
      .groupBy(d(_))
      .map { case (k, vs) => k -> vs.map(g.ids).toSet }
  }

  test("Table 2: distances from q_l") {
    val s = distSets(fig3, ql)
    assert(s(1) == Set(v1, v2, v3))
    assert(s(2) == Set(u2, u3, u5, u6))
    assert(s(3) == Set(qr, u1, u4, u7))
    assert(s(4) == Set(u9))
  }

  test("Table 2: distances from q_r") {
    val s = distSets(fig3, qr)
    assert(s(1) == Set(u1, u2, u3, u9))
    assert(s(2) == Set(v1, v3, u4, u5, u7))
    assert(s(3) == Set(ql, v2, u6))
    assert(!s.contains(4))
  }

  test("Example 5 butterfly degrees on Figure 3") {
    val g = fig3
    val left = Array.tabulate(g.n)(v => g.labels(v) == "SE")
    val right = left.map(!_)
    val chi = g.butterflyDegrees(left, right)
    def c(id: Long): Long = chi(g.indexOf(id))
    assert(c(v1) == 6 && c(v3) == 6)
    assert(c(u2) == 3 && c(u3) == 3 && c(u5) == 3 && c(u6) == 3)
    assert(c(ql) == 0 && c(qr) == 0 && c(v2) == 0)
    assert(c(u1) == 0 && c(u4) == 0 && c(u7) == 0 && c(u9) == 0)
  }

  test("Example 4 / Table 2 bottom: Algorithm 5 after deleting u9") {
    val g = fig3
    val alive = Array.fill(g.n)(true)
    val dQl = g.bfs(Seq(g.indexOf(ql)))
    val dQr = g.bfs(Seq(g.indexOf(qr)))
    val del = g.indexOf(u9)
    alive(del) = false
    FastDist.update(g, alive, dQl, Array(del))
    FastDist.update(g, alive, dQr, Array(del))
    // q_l row unchanged
    val fullQl = g.bfs(Seq(g.indexOf(ql)), alive)
    val fullQr = g.bfs(Seq(g.indexOf(qr)), alive)
    assert(dQl.toSeq == fullQl.toSeq)
    assert(dQr.toSeq == fullQr.toSeq)
    def ids(d: Array[Int], k: Int): Set[Long] =
      (0 until g.n).filter(v => alive(v) && d(v) == k).map(g.ids).toSet
    assert(ids(dQr, 1) == Set(u1, u2, u3))
    assert(ids(dQr, 2) == Set(v1, v3, u5))
    assert(ids(dQr, 3) == Set(ql, v2, u6, u4, u7))
  }

  private def fig3Engine: BCCEngine = {
    val g = fig3
    val e = new BCCEngine(g, BCCParams(1, 1, 1), g.indexOf(ql), g.indexOf(qr), new Instrument)
    e.fullButterflyCount()
    e
  }

  test("Example 5: leader pair identification returns {v1, u2}") {
    val e = fig3Engine
    val distL = e.g.bfs(Seq(e.queries(0)), e.alive)
    val distR = e.g.bfs(Seq(e.queries(1)), e.alive)
    val lL = LeaderPair.identify(e, 0, 0, distL, rho = 3)
    val lR = LeaderPair.identify(e, 0, 1, distR, rho = 3)
    assert(e.g.ids(lL) == v1)
    assert(e.g.ids(lR) == u2)
  }

  test("Example 6: Algorithm 7 updates after deleting u6") {
    val e = fig3Engine
    val iV1 = e.g.indexOf(v1)
    val iU2 = e.g.indexOf(u2)
    val iU6 = e.g.indexOf(u6)
    val chi = e.pairs(0).chi
    assert(chi(iV1) == 6 && chi(iU2) == 3)
    LeaderPair.updateOnDeletion(e, 0, iU2, iU6) // same label: alpha = |{v1,v3}| = 2
    assert(chi(iU2) == 2)
    LeaderPair.updateOnDeletion(e, 0, iV1, iU6) // cross label: beta = 3
    assert(chi(iV1) == 3)
  }

  test("Example 6 first step: deleting u9 does not change leader degrees") {
    val e = fig3Engine
    val iV1 = e.g.indexOf(v1)
    val iU2 = e.g.indexOf(u2)
    val iU9 = e.g.indexOf(u9)
    LeaderPair.updateOnDeletion(e, 0, iV1, iU9)
    LeaderPair.updateOnDeletion(e, 0, iU2, iU9)
    assert(e.pairs(0).chi(iV1) == 6 && e.pairs(0).chi(iU2) == 3)
  }

  // ---- Figure 1 / Figure 2 ----
  import PaperGraphs.Fig1Ids

  test("Figure 1: SE 4-core component is {ql, v1..v5}") {
    val g = PaperGraphs.figure1
    val mask = Array.tabulate(g.n)(v => g.labels(v) == "SE")
    val core = g.kCoreMask(4, mask)
    val coreIds = (0 until g.n).filter(core).map(g.ids).toSet
    assert(coreIds == Set(Fig1Ids.ql) ++ Fig1Ids.v.take(5))
  }

  test("Figure 1: UI 3-core component is {qr, u1..u3}") {
    val g = PaperGraphs.figure1
    val mask = Array.tabulate(g.n)(v => g.labels(v) == "UI")
    val core = g.kCoreMask(3, mask)
    val coreIds = (0 until g.n).filter(core).map(g.ids).toSet
    assert(coreIds == Set(Fig1Ids.qr) ++ Fig1Ids.u.take(3))
  }

  test("Figure 2: default parameters are (4, 3)") {
    val g = PaperGraphs.figure1
    val p = LocalBCC.defaultParams(g, Fig1Ids.ql, Fig1Ids.qr, b = 1)
    assert(p == BCCParams(4, 3, 1))
  }

  test("Figure 2: findG0 returns exactly the published community") {
    val g = PaperGraphs.figure1
    val res = LocalBCC.findG0(g, Fig1Ids.ql, Fig1Ids.qr, BCCParams(4, 3, 1))
    assert(res.isDefined)
    assert(res.get.g0.ids.toSet == PaperGraphs.figure2Community)
  }

  test("Figure 2: Online-BCC answer is the published community") {
    val g = PaperGraphs.figure1
    val res = OnlineBCC.run(g, Fig1Ids.ql, Fig1Ids.qr, BCCParams(4, 3, 1))
    assert(res.isDefined)
    assert(res.get.vertexIds == PaperGraphs.figure2Community)
    assert(Model.isValid(g, res.get.vertexIds, Fig1Ids.ql, Fig1Ids.qr, BCCParams(4, 3, 1)))
  }

  test("Figure 2: LP-BCC answer matches Online-BCC") {
    val g = PaperGraphs.figure1
    val res = LPBCC.run(g, Fig1Ids.ql, Fig1Ids.qr, BCCParams(4, 3, 1))
    assert(res.map(_.vertexIds).contains(PaperGraphs.figure2Community))
  }

  test("Figure 2: L2P-BCC answer is a valid BCC containing the queries") {
    val g = PaperGraphs.figure1
    val res = L2PBCC.run(g, Fig1Ids.ql, Fig1Ids.qr, BCCParams(4, 3, 1), BCIndex.build(g))
    assert(res.isDefined)
    assert(Model.isValid(g, res.get.vertexIds, Fig1Ids.ql, Fig1Ids.qr, BCCParams(4, 3, 1)))
  }

  test("Figure 1: query with wrong-side coreness returns no community") {
    val g = PaperGraphs.figure1
    // v8 is not in the SE 4-core, so it cannot anchor a (4,3,1)-BCC
    assert(OnlineBCC.run(g, Fig1Ids.v(7), Fig1Ids.qr, BCCParams(4, 3, 1)).isEmpty)
  }

  test("Figure 1: butterfly threshold above the max yields no community") {
    val g = PaperGraphs.figure1
    assert(OnlineBCC.run(g, Fig1Ids.ql, Fig1Ids.qr, BCCParams(4, 3, 2)).isEmpty)
  }

  // ---- Theorem 1 gadget ----

  test("clique gadget of K4 admits a (3,3,1)-BCC with diameter <= 2") {
    val k4Edges = for (i <- 0L to 3L; j <- (i + 1) to 3L) yield (i, j)
    val g = PaperGraphs.cliqueGadget(0L to 3L, k4Edges)
    val res = OnlineBCC.run(g, 0L, 4L, BCCParams(3, 3, 1))
    assert(res.isDefined)
    // optimal diameter is 1 (the gadget is a YES instance); 2-approximation
    assert(res.get.diameter <= 2)
    assert(Model.isValid(g, res.get.vertexIds, 0L, 4L, BCCParams(3, 3, 1)))
  }

  test("clique gadget of a triangle-free graph has no (2,2,1)-BCC of small k") {
    // a 4-cycle has max clique 2 => no (2,2,b)-BCC core on either side would
    // survive with k=2? the 4-cycle itself is a 2-core, so a BCC exists; but
    // with k=3 (clique size 4 test) it must not
    val c4 = Seq((0L, 1L), (1L, 2L), (2L, 3L), (3L, 0L))
    val g = PaperGraphs.cliqueGadget(0L to 3L, c4)
    assert(OnlineBCC.run(g, 0L, 4L, BCCParams(3, 3, 1)).isEmpty)
  }
}
