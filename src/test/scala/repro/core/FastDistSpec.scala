package repro.core

import org.scalacheck.Gen
import org.scalacheck.Prop.{forAllNoShrink, propBoolean}
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.data.GraphGen
import repro.graph.{GraphGens, LocalGraph}

/** Property tests: Algorithm 5's incremental query-distance update must
  * agree exactly with a from-scratch BFS after every deletion batch.
  */
class FastDistSpec extends AnyFunSuite {

  private def checkRandomDeletions(seed: Int, rounds: Int): Unit = {
    val g = GraphGen.randomLabeled(80, 4.0, Seq("A", "B"), seed)
    val rnd = new Random(seed * 31)
    val q = rnd.nextInt(g.n)
    val alive = Array.fill(g.n)(true)
    val dist = g.bfs(Seq(q), alive)
    for (_ <- 0 until rounds) {
      val candidates = (0 until g.n).filter(v => alive(v) && v != q)
      if (candidates.nonEmpty) {
        val batch = rnd.shuffle(candidates.toList).take(1 + rnd.nextInt(5))
        batch.foreach(alive(_) = false)
        FastDist.update(g, alive, dist, batch.toArray)
        val ref = g.bfs(Seq(q), alive)
        assert(dist.toSeq == ref.toSeq, s"seed=$seed")
      }
    }
  }

  for (seed <- 1 to 15)
    test(s"incremental update equals full BFS under random deletions, seed=$seed") {
      checkRandomDeletions(seed, rounds = 10)
    }

  /** A graph, two distinct query vertices and a seed for the deletions. */
  private val deletionCases = for {
    g <- GraphGens.graphOn(Gen.choose(1, 3), Gen.choose(2, 40))
    q0 <- Gen.choose(0, g.n - 1)
    off <- Gen.choose(1, g.n - 1)
    seed <- Gen.long
  } yield (g, q0, (q0 + off) % g.n, seed)

  /** 1-6 alive non-query vertices: drawn at random, or (about a third of the
    * batches each) a whole layer of `dist` when it is small enough, which
    * cuts off everything beyond it, or one vertex from each of several
    * layers, as an Algorithm 4 cascade removes them.
    */
  private def nextBatch(rnd: Random, alive: Array[Boolean], dist: Array[Int], isQuery: Int => Boolean): Array[Int] = {
    val free = rnd.shuffle(alive.indices.filter(v => alive(v) && !isQuery(v)).toList)
    val layers = free.filter(dist(_) != LocalGraph.Inf).groupBy(dist(_)).values.toList
    (rnd.nextInt(3) match {
      case 1 if layers.nonEmpty => layers(rnd.nextInt(layers.size))
      case 2 if layers.size > 1 => rnd.shuffle(layers).map(_.head)
      case _ => free
    }).take(1 + rnd.nextInt(6)).toArray
  }

  test("property: two query distances updated through one shared state equal a fresh BFS after every batch") {
    var disconnecting, mixed = 0 // batches that cut a query off part of its graph, or span layers
    GraphGens.check(cases = 500, prop = forAllNoShrink(deletionCases) { case (g, q0, q1, seed) =>
      val rnd = new Random(seed)
      val alive = Array.fill(g.n)(true)
      val dists = Array(g.bfs(Seq(q0), alive), g.bfs(Seq(q1), alive))
      val shared = new FastDist(g)
      var ok = true
      var round = 0
      while (ok && round < 8) {
        round += 1
        val batch = nextBatch(rnd, alive, dists(rnd.nextInt(2)), v => v == q0 || v == q1)
        if (batch.nonEmpty) {
          if (batch.map(dists(0)(_)).filter(_ != LocalGraph.Inf).distinct.length > 1) mixed += 1
          val reached = dists.map(_.count(_ != LocalGraph.Inf))
          batch.foreach(alive(_) = false)
          dists.foreach(shared.update(alive, _, batch))
          val fresh = Array(g.bfs(Seq(q0), alive), g.bfs(Seq(q1), alive))
          if (dists.indices.exists(i => fresh(i).count(_ != LocalGraph.Inf) < reached(i) - batch.length))
            disconnecting += 1
          ok = dists.indices.forall(i => dists(i).sameElements(fresh(i)))
        }
      }
      ok :| s"distances differ from a fresh BFS after round $round"
    })
    assert(disconnecting >= 100 && mixed >= 100, s"disconnecting $disconnecting, mixed $mixed")
  }

  test("empty deletion batch is a no-op") {
    val g = GraphGen.randomLabeled(20, 3.0, Seq("A"), 7)
    val alive = Array.fill(g.n)(true)
    val dist = g.bfs(Seq(0), alive)
    val before = dist.toSeq
    FastDist.update(g, alive, dist, Array.emptyIntArray)
    assert(dist.toSeq == before)
  }

  test("deleting an unreachable vertex leaves reachable distances unchanged") {
    val g = LocalGraph(
      (0L to 3L).map(i => (i, "X")),
      Seq((0L, 1L), (2L, 3L)))
    val alive = Array.fill(g.n)(true)
    val dist = g.bfs(Seq(0), alive)
    alive(2) = false
    FastDist.update(g, alive, dist, Array(2))
    assert(dist(0) == 0 && dist(1) == 1)
    assert(dist(2) == LocalGraph.Inf && dist(3) == LocalGraph.Inf)
  }

  test("deleting a cut vertex makes the far side unreachable") {
    // path 0-1-2-3-4, delete 2
    val g = LocalGraph(
      (0L to 4L).map(i => (i, "X")),
      Seq((0L, 1L), (1L, 2L), (2L, 3L), (3L, 4L)))
    val alive = Array.fill(g.n)(true)
    val dist = g.bfs(Seq(0), alive)
    alive(2) = false
    FastDist.update(g, alive, dist, Array(2))
    assert(dist(1) == 1)
    assert(dist(3) == LocalGraph.Inf && dist(4) == LocalGraph.Inf)
  }

  test("deletion that lengthens but preserves connectivity") {
    // cycle 0-1-2-3-4-5-0; delete 1: dist(0->2) becomes 4 via the long way
    val g = LocalGraph(
      (0L to 5L).map(i => (i, "X")),
      Seq((0L, 1L), (1L, 2L), (2L, 3L), (3L, 4L), (4L, 5L), (5L, 0L)))
    val alive = Array.fill(g.n)(true)
    val dist = g.bfs(Seq(0), alive)
    assert(dist(2) == 2)
    alive(1) = false
    FastDist.update(g, alive, dist, Array(1))
    assert(dist(2) == 4 && dist(3) == 3 && dist(4) == 2 && dist(5) == 1)
  }
}
