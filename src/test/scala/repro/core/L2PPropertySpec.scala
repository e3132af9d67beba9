package repro.core

import scala.collection.mutable
import org.scalacheck.Gen
import org.scalacheck.Prop.{forAllNoShrink, propBoolean}
import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{GraphGens, LocalGraph}

/** Differential properties of Algorithm 8's index and local steps on random
  * labeled graphs: `BCIndex` pair counts against the whole-graph kernel,
  * `weightedPath` against Dijkstra on `mutable.PriorityQueue`, and `expand`
  * against a BFS over an n-sized mask.
  */
class L2PPropertySpec extends AnyFunSuite {

  /** Graph labels are L0..L3, so L4 is an absent label. */
  private val label = Gen.oneOf("L0", "L1", "L2", "L3", "L4")

  test("property: BCIndex pair counts equal the whole-graph kernel over label masks") {
    val cases = for { g <- GraphGens.labeledGraph; a <- label; b <- label } yield (g, a, b)
    GraphGens.check(forAllNoShrink(cases) { case (g, a, b) =>
      val index = BCIndex.build(g)
      val ref = g.butterflyDegrees(GraphGens.labelMask(g, a), GraphGens.labelMask(g, b))
      val got = index.butterflyDegrees(a, b)
      (got.toSeq == ref.toSeq && index.maxButterflyDegree(a, b) == ref.foldLeft(0L)(math.max)) :|
        s"($a, $b): got ${got.toSeq}, reference ${ref.toSeq}"
    })
  }

  /** Dijkstra with the same vertex costs on a boxed `mutable.PriorityQueue`. */
  private def refWeightedPath(
      g: LocalGraph,
      src: Int,
      dst: Int,
      delta: Array[Int],
      maxDelta: Int,
      chi: Array[Long],
      maxChi: Long,
      gamma1: Double,
      gamma2: Double): Option[List[Int]] = {
    val deltaMax = math.max(1, maxDelta)
    val chiMax = math.max(1L, maxChi).toDouble
    def cost(v: Int): Double =
      1.0 + gamma1 * (deltaMax - delta(v)).toDouble / deltaMax +
        gamma2 * (chiMax - chi(v)) / chiMax
    val dist = Array.fill(g.n)(Double.PositiveInfinity)
    val prev = new Array[Int](g.n)
    val pq = mutable.PriorityQueue.empty[(Double, Int)](Ordering.by(-_._1))
    dist(src) = 0.0
    pq.enqueue((0.0, src))
    var settled = false
    while (!settled && pq.nonEmpty) {
      val (d, u) = pq.dequeue()
      if (d <= dist(u)) {
        if (u == dst) settled = true
        else for (w <- g.neighbors(u)) {
          val nd = d + cost(w)
          if (nd < dist(w)) { dist(w) = nd; prev(w) = u; pq.enqueue((nd, w)) }
        }
      }
    }
    if (dist(dst).isInfinity) None
    else {
      var path = List(dst)
      while (path.head != src) path = prev(path.head) :: path
      Some(path)
    }
  }

  test("property: weightedPath returns the path of a PriorityQueue Dijkstra, ties included") {
    val cases = for {
      g <- GraphGens.graphOn(Gen.choose(2, 4), Gen.choose(2, 40))
      src <- Gen.choose(0, g.n - 1)
      dst <- Gen.choose(0, g.n - 1)
      gamma1 <- Gen.oneOf(0.0, 0.5, 1.0)
      gamma2 <- Gen.oneOf(0.0, 0.5, 1.0)
    } yield (g, src, dst, gamma1, gamma2)
    GraphGens.check(forAllNoShrink(cases) { case (g, src, dst, gamma1, gamma2) =>
      val index = BCIndex.build(g)
      val (a, b) = (g.labels(src), g.labels(dst))
      val args = (index.coreness, index.maxCoreness, index.butterflyDegrees(a, b), index.maxButterflyDegree(a, b))
      val got = L2PBCC.weightedPath(g, src, dst, args._1, args._2, args._3, args._4, gamma1, gamma2)
      val ref = refWeightedPath(g, src, dst, args._1, args._2, args._3, args._4, gamma1, gamma2)
      (got == ref) :| s"$src -> $dst, gammas ($gamma1, $gamma2): got $got, reference $ref"
    })
  }

  /** The expansion as a BFS over an n-sized mask, returned as a mask. */
  private def refExpand(g: LocalGraph, path: List[Int], index: BCIndex, eta: Int): Array[Boolean] = {
    def side(lab: String): Int =
      path.filter(v => g.labels(v) == lab).map(index.coreness).minOption.getOrElse(0)
    val (kl, kr) = (side("L0"), side("L1"))
    def admissible(v: Int): Boolean =
      (g.labels(v) == "L0" && index.coreness(v) >= kl) || (g.labels(v) == "L1" && index.coreness(v) >= kr)
    val in = new Array[Boolean](g.n)
    val queue = new java.util.ArrayDeque[Int]()
    var count = 0
    for (v <- path if !in(v)) { in(v) = true; count += 1; queue.add(v) }
    while (!queue.isEmpty && count <= eta) {
      val u = queue.poll()
      for (w <- g.neighbors(u) if !in(w) && admissible(w)) {
        in(w) = true; count += 1; queue.add(w)
      }
    }
    in
  }

  test("property: expand reaches the vertices of the mask BFS") {
    val cases = for {
      g <- GraphGens.graphOn(Gen.choose(2, 4), Gen.choose(2, 40))
      m <- Gen.choose(1, 4)
      path <- Gen.listOfN(m, Gen.choose(0, g.n - 1)) // not always a path; repeats allowed
      eta <- Gen.choose(0, 30)
    } yield (g, path, eta)
    GraphGens.check(forAllNoShrink(cases) { case (g, path, eta) =>
      val index = BCIndex.build(g)
      val got = L2PBCC.expand(g, path, "L0", "L1", index, eta).toSeq
      val ref = (0 until g.n).filter(refExpand(g, path, index, eta))
      (got == ref) :| s"path $path eta $eta: got $got, reference $ref"
    })
  }
}
