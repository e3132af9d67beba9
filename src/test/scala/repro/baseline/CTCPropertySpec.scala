package repro.baseline

import org.scalacheck.Gen
import org.scalacheck.Prop.{forAllNoShrink, propBoolean}
import org.scalatest.funsuite.AnyFunSuite
import repro.eval.Instrument
import repro.graph.{GraphGens, LocalGraph}

/** CTC against a whole-graph reference on random graphs with 1-3 labels
  * (CTC ignores them) and 1-3 queries (duplicates, isolated and
  * disconnected queries included): the same answer and rounds, None exactly
  * when no connected truss holds the queries, and every answer a connected
  * k*-truss around them.
  */
class CTCPropertySpec extends AnyFunSuite {
  import CTCPropertySpec._

  private val cases = for {
    g <- GraphGens.graphOn(Gen.choose(1, 3), Gen.choose(2, 40), Gen.choose(0.05, 0.6))
    m <- Gen.choose(1, 3)
    qs <- Gen.listOfN(m, Gen.choose(0, g.n - 1))
    dup <- Gen.prob(0.2)
  } yield (g, (if (dup) qs :+ qs.head else qs).map(g.ids(_)))

  test("property: CTC equals the full-recompute reference, rounds included") {
    GraphGens.check(forAllNoShrink(cases) { case (g, qs) =>
      val inst = new Instrument
      val got = (CTC.run(g, qs, inst), inst.rounds)
      val ref = refCTC(g, qs)
      (got == ref) :| s"queries $qs: got $got, reference $ref"
    }, cases = 500)
  }

  test("property: CTC finds no community exactly when no connected truss holds the queries") {
    GraphGens.check(forAllNoShrink(cases) { case (g, qs) =>
      // a connected 2-truss holds the queries iff they share a component with an edge
      val q = qs.map(g.indexOf)
      val comp = g.bfs(Seq(q.head))
      val held = q.forall(comp(_) != LocalGraph.Inf) && g.degree(q.head) > 0
      (CTC.run(g, qs).isDefined == held) :| s"queries $qs, held=$held"
    }, cases = 500)
  }

  test("property: every CTC answer is a connected k*-truss covering its vertices") {
    GraphGens.check(forAllNoShrink(cases) { case (g, qs) =>
      CTC.run(g, qs) match {
        case None    => true :| "no answer"
        case Some(c) => trussViolation(g, qs, c).isEmpty :| s"queries $qs: ${trussViolation(g, qs, c)}"
      }
    }, cases = 500)
  }
}

object CTCPropertySpec {
  private val Inf = LocalGraph.Inf

  /** The largest k such that a connected k-truss of `g` holds the queries:
    * the first query's component over the edges of trussness >= k holds
    * every query and has an edge. None if no k >= 2 does.
    */
  def kStar(g: LocalGraph, qs: Seq[Int]): Option[Int] = {
    val truss = g.trussness()
    (truss.valuesIterator.maxOption.getOrElse(2) to 2 by -1).find { k =>
      val comp = componentOver(g, qs.head, (u, w) => truss((math.min(u, w), math.max(u, w))) >= k)
      comp.count(identity) > 1 && qs.forall(comp)
    }
  }

  /** Why `answer` is not a connected k*-truss around the queries, if it is not:
    * it must hold every query, and the maximal k*-truss of the subgraph it
    * induces must be connected and cover every vertex.
    */
  def trussViolation(g: LocalGraph, queryIds: Seq[Long], answer: Set[Long]): Option[String] = {
    val k = kStar(g, queryIds.map(g.indexOf)).getOrElse(return Some("answer without a k*"))
    val sub = g.inducedByIds(answer)
    if (!queryIds.forall(answer)) return Some("a query is missing")
    val truss = sub.trussness()
    val inTruss: (Int, Int) => Boolean = (u, w) => truss((math.min(u, w), math.max(u, w))) >= k
    val covered = (0 until sub.n).forall(v => sub.neighbors(v).exists(inTruss(v, _)))
    val connected = sub.n > 0 && componentOver(sub, 0, inTruss).forall(identity)
    if (!covered) Some(s"a vertex has no edge in the $k-truss")
    else if (!connected) Some(s"the $k-truss is disconnected")
    else None
  }

  private def componentOver(g: LocalGraph, src: Int, edge: (Int, Int) => Boolean): Array[Boolean] = {
    val seen = Array.fill(g.n)(false)
    val queue = scala.collection.mutable.Queue(src)
    seen(src) = true
    while (queue.nonEmpty) {
      val u = queue.dequeue()
      for (w <- g.neighbors(u) if !seen(w) && edge(u, w)) { seen(w) = true; queue.enqueue(w) }
    }
    seen
  }

  /** CTC with a full truss decomposition of the candidate every round: the
    * algorithm as it stood before incremental maintenance, with its edge
    * filter keeping every edge. Returns the answer and the rounds.
    */
  def refCTC(g: LocalGraph, queryIds: Seq[Long]): (Option[Set[Long]], Int) = {
    var rounds = 0

    def trussComponent(
        g: LocalGraph,
        trussOf: Map[(Int, Int), Int],
        k: Int,
        qs: Seq[Int]): Option[Array[Boolean]] = {
      val keepEdge = trussOf.iterator.collect { case (e, t) if t >= k => e }.toSet
      if (keepEdge.isEmpty) return None
      val mask = Array.fill(g.n)(false)
      for ((u, v) <- keepEdge) { mask(u) = true; mask(v) = true }
      if (!qs.forall(mask)) return None
      val seen = Array.fill(g.n)(false)
      val queue = new java.util.ArrayDeque[Int]()
      seen(qs.head) = true
      queue.add(qs.head)
      while (!queue.isEmpty) {
        val u = queue.poll()
        for (w <- g.neighbors(u)) {
          val e = if (u < w) (u, w) else (w, u)
          if (!seen(w) && keepEdge.contains(e)) { seen(w) = true; queue.add(w) }
        }
      }
      if (qs.forall(seen)) Some(seen) else None
    }

    def maintainTruss(
        g: LocalGraph,
        mask: Array[Boolean],
        k: Int,
        qs: Seq[Int]): Option[Array[Boolean]] = {
      val sub = g.induced(mask)
      val trussOf = sub.trussness()
      val qsNew = qs.map { q => sub.indexOf.get(g.ids(q)) match {
        case Some(i) => i
        case None    => return None
      }}
      trussComponent(sub, trussOf, k, qsNew).map { comp =>
        val out = Array.fill(g.n)(false)
        for (v <- 0 until sub.n if comp(v)) out(g.indexOf(sub.ids(v))) = true
        out
      }
    }

    val answer: Option[Set[Long]] = {
      val qs = queryIds.map(g.indexOf)
      val trussOf = g.trussness()
      if (trussOf.isEmpty) return (None, 0)
      val kMax = qs
        .map(q => g.neighbors(q).map(w => trussOf.getOrElse(if (q < w) (q, w) else (w, q), 2)).maxOption.getOrElse(2))
        .min
      var k = kMax
      var start: Option[Array[Boolean]] = None
      while (k >= 2 && start.isEmpty) {
        start = trussComponent(g, trussOf, k, qs)
        if (start.isEmpty) k -= 1
      }
      var mask = start.getOrElse(return (None, 0))
      var bestMask = mask.clone()
      var bestQd = Inf
      var go = true
      while (go) {
        rounds += 1
        val dists = qs.map(q => g.bfs(Seq(q), mask))
        val qd = Array.tabulate(g.n) { v =>
          if (!mask(v)) -1
          else {
            var d = 0
            for (ds <- dists) d = if (d == Inf || ds(v) == Inf) Inf else math.max(d, ds(v))
            d
          }
        }
        val maxQd = (0 until g.n).filter(mask).map(qd).foldLeft(0) {
          case (a, d) => if (a == Inf || d == Inf) Inf else math.max(a, d)
        }
        if (maxQd == Inf) {
          val batch = (0 until g.n).filter(v => mask(v) && qd(v) == Inf)
          batch.foreach(mask(_) = false)
          maintainTruss(g, mask, k, qs) match {
            case Some(m2) => mask = m2
            case None     => go = false
          }
        } else {
          if (maxQd < bestQd) { bestMask = mask.clone(); bestQd = maxQd }
          val batch = (0 until g.n).filter(v => mask(v) && qd(v) == maxQd)
          if (batch.exists(qs.contains(_))) go = false
          else {
            batch.foreach(mask(_) = false)
            maintainTruss(g, mask, k, qs) match {
              case Some(m2) => mask = m2
              case None     => go = false
            }
          }
        }
      }
      Some((0 until g.n).filter(bestMask).map(g.ids).toSet)
    }
    (answer, rounds)
  }
}
