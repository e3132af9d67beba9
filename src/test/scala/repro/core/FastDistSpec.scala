package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.data.GraphGen
import repro.graph.LocalGraph

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
