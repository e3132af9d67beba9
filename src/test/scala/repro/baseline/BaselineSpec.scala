package repro.baseline

import org.scalatest.funsuite.AnyFunSuite
import repro.data.{GraphGen, QueryGen}
import repro.graph.LocalGraph

/** Tests for the two label-blind community-search competitors. */
class BaselineSpec extends AnyFunSuite {

  private def k5(label: String = "X") = LocalGraph(
    (0L to 4L).map(i => (i, label)),
    for (i <- 0L to 4L; j <- (i + 1) to 4L) yield (i, j))

  // ---- CTC ----

  test("CTC on a clique returns the clique") {
    val res = CTC.run(k5(), Seq(0L, 1L))
    assert(res.contains((0L to 4L).toSet))
  }

  test("CTC on a clique with a pendant excludes the pendant") {
    val g = LocalGraph(
      (0L to 5L).map(i => (i, "X")),
      (for (i <- 0L to 4L; j <- (i + 1) to 4L) yield (i, j)) ++ Seq((4L, 5L)))
    val res = CTC.run(g, Seq(0L, 1L))
    assert(res.contains((0L to 4L).toSet))
  }

  test("CTC returns None when queries are disconnected") {
    val g = LocalGraph(
      (0L to 5L).map(i => (i, "X")),
      Seq((0L, 1L), (1L, 2L), (0L, 2L), (3L, 4L), (4L, 5L), (3L, 5L)))
    assert(CTC.run(g, Seq(0L, 3L)).isEmpty)
  }

  test("CTC community contains the queries and is connected") {
    val p = GraphGen.snapLike("amazon-lite")
    for (q <- QueryGen.queries2(p, n = 5, seed = 21)) {
      CTC.run(p.graph, Seq(q.ql, q.qr)).foreach { c =>
        assert(c.contains(q.ql) && c.contains(q.qr))
        val sub = p.graph.inducedByIds(c)
        assert(!sub.bfs(Seq(0)).contains(LocalGraph.Inf))
      }
    }
  }

  test("CTC community is a k-truss for some k >= 2") {
    val p = GraphGen.snapLike("dblp-lite")
    val q = QueryGen.queries2(p, n = 1, seed = 33).head
    val c = CTC.run(p.graph, Seq(q.ql, q.qr))
    assert(c.isDefined)
    // the maximal k*-truss of the answer is connected and covers it
    assert(CTCPropertySpec.trussViolation(p.graph, Seq(q.ql, q.qr), c.get).isEmpty)
  }

  // ---- PSA ----

  test("PSA on a clique returns the clique") {
    val res = PSA.run(k5(), Seq(0L, 1L))
    assert(res.contains((0L to 4L).toSet))
  }

  test("PSA answer is a connected k-core containing the queries") {
    val p = GraphGen.snapLike("amazon-lite")
    for (q <- QueryGen.queries2(p, n = 5, seed = 22)) {
      val g = p.graph
      val coreness = g.coreness()
      val kk = math.max(1, Seq(q.ql, q.qr).map(id => coreness(g.indexOf(id))).min)
      PSA.run(g, Seq(q.ql, q.qr)).foreach { c =>
        assert(c.contains(q.ql) && c.contains(q.qr))
        val sub = g.inducedByIds(c)
        assert(!sub.bfs(Seq(0)).contains(LocalGraph.Inf), "not connected")
        for (v <- 0 until sub.n)
          assert(sub.degree(v) >= kk, s"vertex ${sub.ids(v)} degree ${sub.degree(v)} < $kk")
      }
    }
  }

  test("PSA with an explicit k too large returns None") {
    assert(PSA.run(k5(), Seq(0L, 1L), k = 10).isEmpty)
  }

  test("PSA returns None when queries are disconnected") {
    val g = LocalGraph(
      (0L to 5L).map(i => (i, "X")),
      Seq((0L, 1L), (1L, 2L), (0L, 2L), (3L, 4L), (4L, 5L), (3L, 5L)))
    assert(PSA.run(g, Seq(0L, 3L)).isEmpty)
  }

  test("PSA community tends to be small (progressive, not maximal)") {
    val p = GraphGen.snapLike("dblp-lite")
    val q = QueryGen.queries2(p, n = 1, seed = 44).head
    PSA.run(p.graph, Seq(q.ql, q.qr)).foreach { c =>
      assert(c.size < p.graph.n / 2, s"answer covers most of the graph: ${c.size}")
    }
  }
}
