package repro.baseline

import org.scalacheck.Gen
import org.scalacheck.Prop.{forAllNoShrink, propBoolean}
import org.scalatest.funsuite.AnyFunSuite
import repro.eval.Instrument
import repro.graph.{GraphGens, LocalGraph}

/** PSA against a whole-graph reference on random graphs with 1-3 labels
  * (PSA ignores them): the same answer and the same number of shrink rounds
  * for 1-3 queries (duplicates and disconnected queries included) and k in
  * {-1, 1..4}.
  */
class PSAPropertySpec extends AnyFunSuite {

  private val Inf = LocalGraph.Inf

  /** PSA over whole-graph masks: a full BFS from the queries sorted by
    * distance, a whole-graph k-core peel and component per doubling step,
    * and a shrink over n-sized masks. Returns the answer and the rounds.
    */
  private def refPSA(g: LocalGraph, queryIds: Seq[Long], k: Int): (Option[Set[Long]], Int) = {
    var rounds = 0
    val answer: Option[Set[Long]] = {
      val qs = queryIds.map(g.indexOf)
      val coreness = g.coreness()
      val kk = if (k > 0) k else math.max(1, qs.map(coreness).min)
      if (qs.exists(coreness(_) < kk)) return (None, 0)
      val dist = g.bfs(qs)
      val candidates = (0 until g.n)
        .filter(v => dist(v) != Inf && coreness(v) >= kk)
        .sortBy(dist(_))
      var size = math.min(candidates.length, math.max(qs.size * 4, 16))
      if (size == 0) return (None, 0)
      var found: Option[Array[Boolean]] = None
      while (found.isEmpty && size <= candidates.length * 2) {
        val mask = Array.fill(g.n)(false)
        candidates.take(size).foreach(mask(_) = true)
        val core = g.kCoreMask(kk, mask)
        if (qs.forall(core)) {
          val comp = g.componentOf(qs.head, core)
          if (qs.forall(comp)) found = Some(comp)
        }
        size *= 2
      }
      val start = found.getOrElse(return (None, 0))
      val alive = start.clone()
      val deg = Array.tabulate(g.n)(v => if (alive(v)) g.neighbors(v).count(alive) else 0)
      def cascade(seeds: Seq[Int]): Boolean = {
        val queue = new java.util.ArrayDeque[Int]()
        seeds.foreach(queue.add(_))
        while (!queue.isEmpty) {
          val v = queue.poll()
          if (alive(v)) {
            if (qs.contains(v)) return false
            alive(v) = false
            for (u <- g.neighbors(v) if alive(u)) {
              deg(u) -= 1
              if (deg(u) < kk) queue.add(u)
            }
          }
        }
        true
      }
      var bestMask = alive.clone()
      var bestQd = Inf
      var go = true
      while (go) {
        rounds += 1
        val dists = qs.map(q => g.bfs(Seq(q), alive))
        var maxQd = 0
        val qd = Array.fill(g.n)(-1)
        for (v <- 0 until g.n if alive(v)) {
          var d = 0
          for (ds <- dists) d = if (d == Inf || ds(v) == Inf) Inf else math.max(d, ds(v))
          qd(v) = d
          if (d == Inf) maxQd = Inf else if (maxQd != Inf) maxQd = math.max(maxQd, d)
        }
        if (maxQd != Inf && maxQd < bestQd) { bestMask = alive.clone(); bestQd = maxQd }
        val batch = (0 until g.n).filter(v => alive(v) && qd(v) == maxQd)
        if (batch.isEmpty || batch.exists(qs.contains(_))) go = false
        else if (!cascade(batch)) go = false
      }
      Some((0 until g.n).filter(bestMask).map(g.ids).toSet)
    }
    (answer, rounds)
  }

  test("property: PSA equals the whole-graph reference, rounds included") {
    val cases = for {
      g <- GraphGens.graphOn(Gen.choose(1, 3), Gen.choose(2, 70), Gen.choose(0.03, 0.3))
      m <- Gen.choose(1, 3)
      qs <- Gen.listOfN(m, Gen.choose(0, g.n - 1))
      dup <- Gen.prob(0.2)
      k <- Gen.oneOf(-1, 1, 2, 3, 4)
    } yield (g, (if (dup) qs :+ qs.head else qs).map(g.ids(_)), k)
    GraphGens.check(forAllNoShrink(cases) { case (g, qs, k) =>
      val inst = new Instrument
      val got = (PSA.run(g, qs, k, inst), inst.rounds)
      val ref = refPSA(g, qs, k)
      (got == ref) :| s"k=$k queries $qs: got $got, reference $ref"
    }, cases = 500)
  }
}
