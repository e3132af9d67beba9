package repro.graph

import org.scalacheck.Gen
import org.scalacheck.Prop.{forAll, propBoolean}
import org.scalatest.funsuite.AnyFunSuite
import repro.data.GraphGen

/** Unit tests for the driver-side graph substrate, checked against small
  * brute-force references.
  */
class LocalGraphSpec extends AnyFunSuite {

  private def path5 = LocalGraph(
    (0L to 4L).map(i => (i, "X")),
    Seq((0L, 1L), (1L, 2L), (2L, 3L), (3L, 4L)))

  private def k4 = LocalGraph(
    (0L to 3L).map(i => (i, "X")),
    for (i <- 0L to 3L; j <- (i + 1) to 3L) yield (i, j))

  test("builder dedups parallel edges and drops self loops") {
    val g = LocalGraph(Seq((1L, "A"), (2L, "A")), Seq((1L, 2L), (2L, 1L), (1L, 1L), (1L, 2L)))
    assert(g.edgeCount == 1)
    assert(g.degree(0) == 1 && g.degree(1) == 1)
  }

  test("builder rejects unknown endpoints") {
    val e = intercept[IllegalArgumentException] {
      LocalGraph(Seq((1L, "A")), Seq((1L, 9L)))
    }
    assert(e.getMessage.contains("9"), e.getMessage)
  }

  test("builder rejects duplicate vertex ids") {
    intercept[IllegalArgumentException] {
      LocalGraph(Seq((1L, "A"), (1L, "B")), Nil)
    }
  }

  test("degrees and edge count on K4") {
    val g = k4
    assert(g.edgeCount == 6)
    (0 until 4).foreach(v => assert(g.degree(v) == 3))
  }

  test("hasEdge is symmetric and correct") {
    val g = path5
    assert(g.hasEdge(0, 1) && g.hasEdge(1, 0))
    assert(!g.hasEdge(0, 2))
  }

  test("bfs distances on a path") {
    val d = path5.bfs(Seq(0))
    assert(d.toSeq == Seq(0, 1, 2, 3, 4))
  }

  test("bfs respects alive mask") {
    val alive = Array(true, true, false, true, true)
    val d = path5.bfs(Seq(0), alive)
    assert(d(1) == 1 && d(2) == LocalGraph.Inf && d(3) == LocalGraph.Inf)
  }

  test("multi-source bfs takes the min") {
    val d = path5.bfs(Seq(0, 4))
    assert(d.toSeq == Seq(0, 1, 2, 1, 0))
  }

  test("componentOf splits disconnected graphs") {
    val g = LocalGraph(
      (0L to 3L).map(i => (i, "X")),
      Seq((0L, 1L), (2L, 3L)))
    val c = g.componentOf(0)
    assert(c.toSeq == Seq(true, true, false, false))
  }

  test("components labels every alive vertex") {
    val g = LocalGraph((0L to 4L).map(i => (i, "X")), Seq((0L, 1L), (2L, 3L)))
    val c = g.components()
    assert(c(0) == c(1) && c(2) == c(3) && c(0) != c(2) && c(4) == 4)
  }

  test("coreness of a clique is n-1") {
    assert(k4.coreness().toSeq == Seq(3, 3, 3, 3))
  }

  test("coreness of a path is 1") {
    assert(path5.coreness().toSeq == Seq(1, 1, 1, 1, 1))
  }

  test("coreness of a clique with a pendant") {
    val g = LocalGraph(
      (0L to 4L).map(i => (i, "X")),
      (for (i <- 0L to 3L; j <- (i + 1) to 3L) yield (i, j)) ++ Seq((3L, 4L)))
    assert(g.coreness().toSeq == Seq(3, 3, 3, 3, 1))
  }

  /** Reference coreness: iteratively peel min-degree vertices. */
  private def refCoreness(g: LocalGraph): Array[Int] = {
    val alive = Array.fill(g.n)(true)
    val core = Array.fill(g.n)(0)
    var k = 0
    var left = g.n
    while (left > 0) {
      var changed = true
      while (changed) {
        changed = false
        for (v <- 0 until g.n if alive(v) && g.neighbors(v).count(alive) <= k) {
          core(v) = k
          alive(v) = false
          left -= 1
          changed = true
        }
      }
      k += 1
    }
    core
  }

  for (seed <- 1 to 8)
    test(s"coreness matches peeling reference on random graph, seed=$seed") {
      val g = GraphGen.randomLabeled(60, 4.0 + seed % 3, Seq("A", "B"), seed)
      assert(g.coreness().toSeq == refCoreness(g).toSeq)
    }

  for (seed <- 1 to 8)
    test(s"kCoreMask is the maximal k-core, seed=$seed") {
      val g = GraphGen.randomLabeled(60, 4.5, Seq("A"), seed * 7)
      val core = g.coreness()
      for (k <- 1 to 4) {
        val mask = g.kCoreMask(k)
        // a vertex is in the k-core iff its coreness >= k
        assert(mask.toSeq == core.map(_ >= k).toSeq, s"k=$k")
        // and every kept vertex has >= k kept neighbors
        for (v <- 0 until g.n if mask(v))
          assert(g.neighbors(v).count(mask) >= k)
      }
    }

  test("kCoreMask with alive restricts the universe") {
    val g = k4
    val alive = Array(true, true, true, false)
    val mask = g.kCoreMask(2, alive)
    assert(mask.toSeq == Seq(true, true, true, false))
    assert(g.kCoreMask(3, alive).forall(!_))
  }

  test("diameter of a path and a clique") {
    assert(path5.diameter() == 4)
    assert(k4.diameter() == 1)
  }

  test("induced reindexes and keeps labels") {
    val g = path5
    val sub = g.induced(Array(true, true, true, false, false))
    assert(sub.n == 3 && sub.edgeCount == 2)
    assert(sub.ids.toSeq == Seq(0L, 1L, 2L))
    assert(sub.labels.forall(_ == "X"))
  }

  test("inducedByIds selects by external id") {
    val sub = path5.inducedByIds(Set(2L, 3L, 4L))
    assert(sub.n == 3 && sub.edgeCount == 2)
  }

  /** Brute-force butterfly degree: enumerate all 2x2 bicliques. */
  private def refButterflies(
      g: LocalGraph,
      left: Array[Boolean],
      right: Array[Boolean]): Array[Long] = {
    val chi = Array.fill(g.n)(0L)
    val ls = (0 until g.n).filter(left)
    val rs = (0 until g.n).filter(right)
    for {
      i <- ls.indices; j <- i + 1 until ls.length
      a <- rs.indices; b <- a + 1 until rs.length
      l1 = ls(i); l2 = ls(j); r1 = rs(a); r2 = rs(b)
      if g.hasEdge(l1, r1) && g.hasEdge(l1, r2) && g.hasEdge(l2, r1) && g.hasEdge(l2, r2)
    } {
      chi(l1) += 1; chi(l2) += 1; chi(r1) += 1; chi(r2) += 1
    }
    chi
  }

  test("butterfly degree of a complete 2x2 biclique is 1 everywhere") {
    val g = LocalGraph(
      Seq((0L, "A"), (1L, "A"), (2L, "B"), (3L, "B")),
      Seq((0L, 2L), (0L, 3L), (1L, 2L), (1L, 3L)))
    val left = Array(true, true, false, false)
    val right = left.map(!_)
    assert(g.butterflyDegrees(left, right).toSeq == Seq(1L, 1L, 1L, 1L))
  }

  test("butterfly degree of K(2,3)") {
    val g = LocalGraph(
      Seq((0L, "A"), (1L, "A"), (2L, "B"), (3L, "B"), (4L, "B")),
      for (l <- 0L to 1L; r <- 2L to 4L) yield (l, r))
    val left = Array(true, true, false, false, false)
    val right = left.map(!_)
    // each left vertex is in C(3,2)=3 butterflies; each right in C(2,2)*2=2
    assert(g.butterflyDegrees(left, right).toSeq == Seq(3L, 3L, 2L, 2L, 2L))
  }

  test("intra-label edges do not create butterflies") {
    val g = LocalGraph(
      Seq((0L, "A"), (1L, "A"), (2L, "B"), (3L, "B")),
      Seq((0L, 1L), (2L, 3L), (0L, 2L), (0L, 3L), (1L, 2L), (1L, 3L)))
    val left = Array(true, true, false, false)
    val right = left.map(!_)
    assert(g.butterflyDegrees(left, right).toSeq == Seq(1L, 1L, 1L, 1L))
  }

  for (seed <- 1 to 10)
    test(s"butterfly degrees match brute force on random bipartite-ish graph, seed=$seed") {
      val g = GraphGen.randomLabeled(24, 5.0, Seq("A", "B"), seed * 13)
      val left = Array.tabulate(g.n)(v => g.labels(v) == "A")
      val right = left.map(!_)
      assert(g.butterflyDegrees(left, right).toSeq == refButterflies(g, left, right).toSeq)
    }

  test("butterfly degrees honor the alive mask") {
    val g = LocalGraph(
      Seq((0L, "A"), (1L, "A"), (2L, "B"), (3L, "B")),
      Seq((0L, 2L), (0L, 3L), (1L, 2L), (1L, 3L)))
    val left = Array(true, true, false, false)
    val right = left.map(!_)
    val alive = Array(true, true, true, false)
    assert(g.butterflyDegrees(left, right, alive).forall(_ == 0L))
  }

  test("property: butterfly degrees match brute force on 2-4 labels, alive masks and hubs") {
    GraphGens.check(forAll(GraphGens.labeledGraph.flatMap(g => GraphGens.aliveMask(g.n).map((g, _)))) {
      case (g, alive) =>
        val live = (v: Int) => alive == null || alive(v)
        val left = Array.tabulate(g.n)(v => g.labels(v) == "L0" && live(v))
        val right = Array.tabulate(g.n)(v => g.labels(v) == "L1" && live(v))
        val got = g.butterflyDegrees(GraphGens.labelMask(g, "L0"), GraphGens.labelMask(g, "L1"), alive)
        (got.toSeq == refButterflies(g, left, right).toSeq) :| s"chi ${got.toSeq}"
    })
  }

  test("property: a vertex in both masks counts on the left") {
    val masks = for {
      g <- GraphGens.labeledGraph
      l <- Gen.listOfN(g.n, Gen.prob(0.5))
      r <- Gen.listOfN(g.n, Gen.prob(0.6))
    } yield (g, l.toArray, r.toArray)
    GraphGens.check(forAll(masks) { case (g, l, r) =>
      val rightOnly = Array.tabulate(g.n)(v => r(v) && !l(v))
      (g.butterflyDegrees(l, r).toSeq == refButterflies(g, l, rightOnly).toSeq) :| "overlap"
    })
  }

  test("property: labelCoreness and masked coreness match the reference per label") {
    GraphGens.check(forAll(GraphGens.labeledGraph) { g =>
      val got = g.labelCoreness()
      g.labelSet.forall { lab =>
        val mask = GraphGens.labelMask(g, lab)
        val ref = refCoreness(g.induced(mask)).toSeq // induced keeps vertex order
        val masked = g.coreness(mask)
        (0 until g.n).filter(mask).map(got) == ref && (0 until g.n).filter(mask).map(masked) == ref
      } :| s"labelCoreness ${got.toSeq}"
    })
  }

  test("property: bfs from duplicate or dead sources equals a reference") {
    val cases = for {
      g <- GraphGens.labeledGraph
      alive <- GraphGens.aliveMask(g.n)
      k <- Gen.choose(0, 4)
      srcs <- Gen.listOfN(k, Gen.choose(0, g.n - 1))
    } yield (g, alive, srcs ++ srcs.take(1)) // a repeated source whenever there is one
    GraphGens.check(forAll(cases) { case (g, alive, srcs) =>
      // relax every alive edge until nothing changes
      val live = (v: Int) => alive == null || alive(v)
      val ref = Array.fill(g.n)(LocalGraph.Inf)
      srcs.filter(live).foreach(ref(_) = 0)
      var changed = true
      while (changed) {
        changed = false
        for (v <- 0 until g.n if live(v) && ref(v) != LocalGraph.Inf; w <- g.neighbors(v)
             if live(w) && ref(w) > ref(v) + 1) { ref(w) = ref(v) + 1; changed = true }
      }
      (g.bfs(srcs, alive).toSeq == ref.toSeq) :| s"sources $srcs"
    })
  }

  test("property: kCoreMask equals repeated removal of low-degree vertices") {
    val cases = for {
      g <- GraphGens.labeledGraph
      alive <- GraphGens.aliveMask(g.n)
      k <- Gen.choose(0, 5)
    } yield (g, alive, k)
    GraphGens.check(forAll(cases) { case (g, alive, k) =>
      val ref = Array.tabulate(g.n)(v => alive == null || alive(v))
      var changed = true
      while (changed) {
        val drop = (0 until g.n).filter(v => ref(v) && g.neighbors(v).count(ref) < k)
        drop.foreach(ref(_) = false)
        changed = drop.nonEmpty
      }
      (g.kCoreMask(k, alive).toSeq == ref.toSeq) :| s"k=$k"
    })
  }

  test("trussness of K4 is 4 on every edge") {
    assert(k4.trussness().values.forall(_ == 4))
  }

  test("trussness of a triangle with a tail") {
    val g = LocalGraph(
      (0L to 3L).map(i => (i, "X")),
      Seq((0L, 1L), (1L, 2L), (0L, 2L), (2L, 3L)))
    val t = g.trussness()
    assert(t((0, 1)) == 3 && t((1, 2)) == 3 && t((0, 2)) == 3)
    assert(t((2, 3)) == 2)
  }

  /** Reference trussness via repeated support recomputation. */
  private def refTrussness(g: LocalGraph): Map[(Int, Int), Int] = {
    var aliveEdges = g.edges.toSet
    val out = scala.collection.mutable.Map[(Int, Int), Int]()
    var k = 2
    while (aliveEdges.nonEmpty) {
      var changed = true
      while (changed) {
        changed = false
        def support(e: (Int, Int)): Int =
          g.neighbors(e._1).count { w =>
            val a = if (e._1 < w) (e._1, w) else (w, e._1)
            val b = if (e._2 < w) (e._2, w) else (w, e._2)
            aliveEdges.contains(a) && aliveEdges.contains(b)
          }
        val drop = aliveEdges.filter(e => support(e) <= k - 2)
        if (drop.nonEmpty) {
          changed = true
          drop.foreach { e => out(e) = k; aliveEdges -= e }
        }
      }
      k += 1
    }
    out.toMap
  }

  for (seed <- 1 to 6)
    test(s"trussness matches reference on random graph, seed=$seed") {
      val g = GraphGen.randomLabeled(30, 5.0, Seq("X"), seed * 17)
      assert(g.trussness() == refTrussness(g))
    }

  test("property: trussness equals the reference and iterates in the same order") {
    // the map is built through a HashMap, and callers that iterate it see
    // that order
    GraphGens.check(forAll(GraphGens.graphOn(Gen.choose(1, 2), Gen.choose(2, 40))) { g =>
      val got = g.trussness()
      val ref = refTrussness(g)
      (got == ref && got.toSeq == ref.toSeq) :| s"got $got"
    })
  }

  test("property: the truss index matches trussness, and supportIn counts k-truss triangles") {
    GraphGens.check(forAll(GraphGens.graphOn(Gen.choose(1, 2), Gen.choose(2, 40))) { g =>
      val t = g.trussIndex
      val truss = g.trussness()
      val slots = (0 until g.n).forall { u =>
        g.neighbors(u).indices.forall { j =>
          val e = t.eid(t.off(u) + j)
          val w = g.neighbors(u)(j)
          t.lo(e) == math.min(u, w) && t.hi(e) == math.max(u, w) && t.truss(e) == truss((t.lo(e), t.hi(e)))
        }
      }
      val supports = (2 to t.truss.maxOption.getOrElse(2)).forall { k =>
        val sup = t.supportIn(k)
        def in(u: Int, w: Int): Boolean = g.hasEdge(u, w) && truss((math.min(u, w), math.max(u, w))) >= k
        (0 until t.m).forall { e =>
          val (u, w) = (t.lo(e), t.hi(e))
          val ref = if (!in(u, w)) -1 else g.neighbors(u).count(x => in(u, x) && in(w, x))
          sup(e) == ref
        }
      }
      (t.m == g.edgeCount && slots && supports) :| s"slots=$slots supports=$supports"
    })
  }
}
