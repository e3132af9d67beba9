package repro.core

import org.scalacheck.Gen
import org.scalacheck.Prop.{forAll, propBoolean}
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.data.GraphGen
import repro.eval.Instrument
import repro.graph.{GraphGens, LocalGraph}

/** Property tests for Algorithms 6-7: the incremental leader butterfly
  * update must track the exact recount through arbitrary deletion
  * sequences, and identification must return a valid leader.
  */
class LeaderPairSpec extends AnyFunSuite {

  private def freshEngine(seed: Int): BCCEngine = {
    val g = GraphGen.randomLabeled(40, 5.0, Seq("A", "B"), seed)
    val ql = (0 until g.n).find(g.labels(_) == "A").get
    val qr = (0 until g.n).find(g.labels(_) == "B").get
    val e = new BCCEngine(g, BCCParams(0, 0, 1), ql, qr, new Instrument)
    e.fullButterflyCount()
    e
  }

  for (seed <- 1 to 15)
    test(s"Algorithm 7 tracks exact butterfly degrees through deletions, seed=$seed") {
      val e = freshEngine(seed)
      val rnd = new Random(seed * 7)
      // pick the two argmax vertices as leaders
      val chi = e.pairs(0).chi
      val lL = (0 until e.g.n).filter(e.masks(0)).maxBy(chi)
      val lR = (0 until e.g.n).filter(e.masks(1)).maxBy(chi)
      var alive = (0 until e.g.n).filter(v => e.alive(v) && v != lL && v != lR)
      for (_ <- 0 until 15 if alive.nonEmpty) {
        val v = alive(rnd.nextInt(alive.length))
        LeaderPair.updateOnDeletion(e, 0, lL, v)
        LeaderPair.updateOnDeletion(e, 0, lR, v)
        e.alive(v) = false
        alive = alive.filter(_ != v)
        val ref = e.g.butterflyDegrees(e.masks(0), e.masks(1), e.alive)
        assert(chi(lL) == ref(lL), s"left leader after deleting $v")
        assert(chi(lR) == ref(lR), s"right leader after deleting $v")
      }
    }

  /** A random graph with a random leader `p` among the masks' active
    * vertices and a random deletion order of the other vertices.
    */
  private def leaderCase(labels: Int): Gen[(LocalGraph, Int, List[Int])] = for {
    g <- GraphGens.graphOn(Gen.const(labels)).suchThat(g => g.labelSet("L0") && g.labelSet("L1"))
    p <- Gen.oneOf((0 until g.n).filter(v => g.labels(v) == "L0" || g.labels(v) == "L1"))
    seed <- Gen.long
    order = new Random(seed).shuffle((0 until g.n).filter(_ != p).toList)
  } yield (g, p, order)

  test("property: Algorithm 7 on a BCCEngine equals a recount after every deletion") {
    GraphGens.check(forAll(leaderCase(labels = 2)) { case (g, p, order) =>
      val qr = (0 until g.n).find(v => g.labels(v) != g.labels(p)).get
      val e = new BCCEngine(g, BCCParams(0, 0, 1), p, qr, new Instrument)
      e.fullButterflyCount()
      order.forall { v =>
        LeaderPair.updateOnDeletion(e, 0, p, v)
        e.alive(v) = false
        e.pairs(0).chi(p) == g.butterflyDegrees(e.masks(0), e.masks(1), e.alive)(p)
      } :| s"leader $p"
    })
  }

  test("property: Algorithm 7 on an m = 3 label pair equals a recount after every deletion") {
    GraphGens.check(forAll(leaderCase(labels = 3)) { case (g, p, order) =>
      // the pair (L0, L1) of a 3-label graph, as MultiBCC tracks it
      val a = GraphGens.labelMask(g, "L0")
      val b = GraphGens.labelMask(g, "L1")
      val alive = Array.fill(g.n)(true)
      var chi = g.butterflyDegrees(a, b, alive)(p)
      order.forall { v =>
        chi -= g.butterfliesLost(a, b, alive, p, v)
        alive(v) = false
        chi == g.butterflyDegrees(a, b, alive)(p)
      } :| s"leader $p"
    })
  }

  for (seed <- 1 to 10)
    test(s"identified leader meets the butterfly threshold when possible, seed=$seed") {
      val e = freshEngine(seed + 100)
      val distL = e.g.bfs(Seq(e.queries(0)), e.alive)
      val distR = e.g.bfs(Seq(e.queries(1)), e.alive)
      for (side <- Seq(0, 1)) {
        val bMax = e.maxChi(0, side)
        if (bMax >= e.b) {
          val p = LeaderPair.identify(e, 0, side, if (side == 0) distL else distR)
          assert(e.pairs(0).chi(p) >= e.b)
          assert(e.masks(side)(p))
        }
      }
    }

  test("identification returns the query vertex when it is the leader") {
    // the query vertex itself has the max butterfly degree
    val g = repro.graph.LocalGraph(
      Seq((0L, "A"), (1L, "A"), (2L, "B"), (3L, "B")),
      Seq((0L, 2L), (0L, 3L), (1L, 2L), (1L, 3L)))
    val e = new BCCEngine(g, BCCParams(0, 0, 1), 0, 2, new Instrument)
    e.fullButterflyCount()
    val p = LeaderPair.identify(e, 0, 0, g.bfs(Seq(0)))
    assert(p == 0)
  }

  test("identification returns when b = 0 and no same-side vertex is within rho") {
    // A = {0, 5, 7}, B = {1, 2, 3, 4, 6}: the one butterfly 5-4-7-6 lies five
    // hops from the query 0, so the threshold search finds nothing within rho
    val labels = "ABBBBABA"
    val g = LocalGraph(
      labels.indices.map(v => (v.toLong, labels(v).toString)),
      Seq((0L, 1L), (1L, 2L), (2L, 3L), (3L, 4L), (4L, 5L), (5L, 6L), (7L, 4L), (7L, 6L)))
    val e = new BCCEngine(g, BCCParams(0, 0, 0), 0, 1, new Instrument)
    e.fullButterflyCount()
    var p = -1
    val t = new Thread(() => p = LeaderPair.identify(e, 0, 0, g.bfs(Seq(0))))
    t.setDaemon(true) // a hung search must not keep the test JVM alive
    t.start()
    t.join(10000)
    assert(!t.isAlive, "identify did not return within 10 s")
    assert(e.masks(0)(p) && e.pairs(0).chi(p) >= e.b)
  }

  test("updateOnDeletion ignores dead or self vertices") {
    val e = freshEngine(3)
    val chi = e.pairs(0).chi
    val lL = (0 until e.g.n).filter(e.masks(0)).maxBy(chi)
    val before = chi(lL)
    LeaderPair.updateOnDeletion(e, 0, lL, lL) // self: no-op
    assert(chi(lL) == before)
  }
}
