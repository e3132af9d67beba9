package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.{GraphGen, QueryGen}
import repro.eval.{F1, Instrument}

/** Tests for Algorithm 8 internals and the BCindex. */
class L2PSpec extends AnyFunSuite {

  private val planted = GraphGen.snapLike("dblp-lite")
  private val index = BCIndex.build(planted.graph)

  test("BCindex coreness equals per-label coreness") {
    val g = planted.graph
    for (lab <- g.labelSet) {
      val mask = Array.tabulate(g.n)(v => g.labels(v) == lab)
      val c = g.coreness(mask)
      for (v <- 0 until g.n if mask(v))
        assert(index.coreness(v) == c(v))
    }
  }

  test("BCindex butterfly degrees are cached and symmetric in label order") {
    val a = index.butterflyDegrees("A", "B")
    val b = index.butterflyDegrees("B", "A")
    assert(a.toSeq == b.toSeq) // same cache entry
  }

  test("weighted path connects the queries and stays in the graph") {
    val g = planted.graph
    val q = QueryGen.queries2(planted, 1, seed = 8).head
    val chi = index.butterflyDegrees("A", "B")
    val path = L2PBCC.weightedPath(
      g, g.indexOf(q.ql), g.indexOf(q.qr), index.coreness, index.maxCoreness, chi,
      index.maxButterflyDegree("A", "B"), 0.5, 0.5)
    assert(path.isDefined)
    val p = path.get
    assert(p.head == g.indexOf(q.ql) && p.last == g.indexOf(q.qr))
    for (Seq(u, v) <- p.sliding(2)) assert(g.hasEdge(u, v))
  }

  test("weighted path with zero gammas is a plain shortest path") {
    val g = planted.graph
    val q = QueryGen.queries2(planted, 1, seed = 9).head
    val chi = index.butterflyDegrees("A", "B")
    val path = L2PBCC
      .weightedPath(g, g.indexOf(q.ql), g.indexOf(q.qr), index.coreness, index.maxCoreness, chi,
        index.maxButterflyDegree("A", "B"), 0.0, 0.0)
      .get
    val d = g.bfs(Seq(g.indexOf(q.ql)))(g.indexOf(q.qr))
    assert(path.length - 1 == d)
  }

  test("weighted path returns None across components") {
    val g = repro.graph.LocalGraph(
      Seq((0L, "A"), (1L, "B")), Nil)
    assert(L2PBCC.weightedPath(g, 0, 1, Array(0, 0), 0, Array(0L, 0L), 0L, 0.5, 0.5).isEmpty)
  }

  test("expansion contains the path and respects the size cap roughly") {
    val g = planted.graph
    val q = QueryGen.queries2(planted, 1, seed = 10).head
    val chi = index.butterflyDegrees("A", "B")
    val path = L2PBCC
      .weightedPath(g, g.indexOf(q.ql), g.indexOf(q.qr), index.coreness, index.maxCoreness, chi,
      index.maxButterflyDegree("A", "B"), 0.5, 0.5)
      .get
    val verts = L2PBCC.expand(g, path, "A", "B", index, eta = 50)
    assert(path.forall(verts.contains))
    // BFS adds a frontier at a time, so allow one frontier of slack
    assert(verts.length <= 50 + g.n / 2)
  }

  test("L2P-BCC quality is comparable to Online-BCC on planted queries") {
    val qs = QueryGen.queries2(planted, n = 8, seed = 11)
    var l2p = 0.0
    var online = 0.0
    var found = 0
    for (q <- qs) {
      val params = LocalBCC.defaultParams(planted.graph, q.ql, q.qr)
      val a = L2PBCC.run(planted.graph, q.ql, q.qr, params, index, computeDiameter = false)
      val b = OnlineBCC.run(planted.graph, q.ql, q.qr, params, computeDiameter = false)
      for { ra <- a; rb <- b } {
        l2p += F1.f1(ra.vertexIds, q.truth)
        online += F1.f1(rb.vertexIds, q.truth)
        found += 1
      }
    }
    assert(found > 0)
    assert(l2p >= 0.8 * online, s"L2P F1 $l2p much worse than Online $online")
  }

  test("L2P-BCC reuses the index across queries without rebuilding") {
    val qs = QueryGen.queries2(planted, n = 3, seed = 12)
    val inst = new Instrument
    for (q <- qs) {
      val params = LocalBCC.defaultParams(planted.graph, q.ql, q.qr)
      L2PBCC.run(planted.graph, q.ql, q.qr, params, index, inst, computeDiameter = false)
    }
    assert(inst.totalNanos > 0)
  }
}
