package repro.core

import repro.eval.Instrument
import repro.graph.LocalGraph

/** Section 7: multi-labeled BCC search (Definitions 7-8, Algorithm 9).
  *
  * An mBCC has m labeled groups, each a k_i-core, and the label meta-graph —
  * one node per label, an edge whenever the bipartite graph between two
  * groups has a leader vertex on each side with butterfly degree >= b — must
  * be connected (*cross-group connectivity*). The search framework mirrors
  * Algorithm 1: find a maximal candidate, bulk-delete query-farthest
  * vertices, maintain every group's core and recheck meta-connectivity.
  */
object MultiBCC {

  /** Result of a multi-labeled search. */
  final case class MBCCResult(
      vertexIds: Set[Long],
      labels: Seq[String],
      queryDistance: Int,
      rounds: Int)

  /** Per-pair leader state for the fast (LP-style) mode. */
  private final class PairState(
      var leaderA: Int, var chiA: Long,
      var leaderB: Int, var chiB: Long,
      var valid: Boolean)

  /** Algorithm 9. `queryIds` must carry pairwise distinct labels; `ks(i)`
    * is the core requirement for the label of `queryIds(i)`.
    *
    * @param fast use the Section 6 strategies lifted to m labels:
    *             Algorithm 5 incremental query distances and per-pair
    *             leader tracking with Algorithm 7 updates (full pair
    *             recounts only when a leader dies or drops below b).
    *             Returns the same community as the naive mode.
    */
  def run(
      g: LocalGraph,
      queryIds: Seq[Long],
      ks: Seq[Int],
      b: Int,
      inst: Instrument = new Instrument,
      fast: Boolean = false): Option[MBCCResult] = inst.timeTotal {
    require(queryIds.length >= 2 && queryIds.length == ks.length, "mBCC needs m >= 2 queries")
    val qs = queryIds.map(id => g.indexOf.getOrElse(id, return None))
    val labs = qs.map(g.labels)
    if (labs.distinct.length != labs.length) return None
    val m = labs.length

    // G0: per-label k_i-core component containing q_i (Alg. 9 line 1)
    val masks = (0 until m).map { i =>
      val mask = Array.tabulate(g.n)(v => g.labels(v) == labs(i))
      val core = g.kCoreMask(ks(i), mask)
      if (!core(qs(i))) return None
      g.componentOf(qs(i), core)
    }
    val alive = Array.tabulate(g.n)(v => masks.exists(_(v)))
    val pairIdx = for (i <- 0 until m; j <- i + 1 until m) yield (i, j)

    // Per-pair butterfly check: the max-chi vertex on each side of the
    // bipartite graph between two groups (over `alive`), valid if both >= b
    def pairLeaders(i: Int, j: Int): PairState = {
      val chi = g.butterflyDegrees(masks(i), masks(j), alive)
      var (la, ca, lb, cb) = (-1, -1L, -1, -1L)
      var v = 0
      while (v < g.n) {
        if (alive(v)) {
          if (masks(i)(v) && chi(v) > ca) { la = v; ca = chi(v) }
          if (masks(j)(v) && chi(v) > cb) { lb = v; cb = chi(v) }
        }
        v += 1
      }
      new PairState(la, ca, lb, cb, valid = ca >= b && cb >= b)
    }
    def recountPair(i: Int, j: Int): PairState = {
      inst.butterflyCountCalls += 1
      inst.timeButterflyCount(pairLeaders(i, j))
    }
    // Cross-group connectivity (Def. 7): union-find over the label
    // meta-graph, checking a pair only while its groups are apart
    def connected(pairOk: (Int, Int) => Boolean): Boolean = {
      val parent = Array.tabulate(m)(identity)
      def find(x: Int): Int = { var r = x; while (parent(r) != r) r = parent(r); parent(x) = r; r }
      for ((i, j) <- pairIdx if find(i) != find(j) && pairOk(i, j)) parent(find(i)) = find(j)
      (0 until m).map(find).distinct.size == 1
    }
    if (!connected(pairLeaders(_, _).valid)) return None

    val intraDeg = Array.tabulate(g.n)(v =>
      if (alive(v)) g.neighbors(v).count(u => alive(u) && g.labels(u) == g.labels(v)) else 0)
    val kOf: Int => Int = v => ks(labs.indexOf(g.labels(v)))

    // fast-mode state: per-pair leaders tracked with Algorithm 7 updates
    val pairState = scala.collection.mutable.Map[(Int, Int), PairState]()
    val pairStale = scala.collection.mutable.Set[(Int, Int)]()
    if (fast) for ((i, j) <- pairIdx) pairState((i, j)) = recountPair(i, j)

    def metaConnected(): Boolean =
      if (!fast) connected(pairLeaders(_, _).valid)
      else {
        // refresh stale or weakened pairs with a full recount (chi only
        // decreases, so invalid pairs stay invalid and are skipped)
        for ((i, j) <- pairIdx) {
          val st = pairState((i, j))
          if (st.valid && (pairStale.contains((i, j)) || st.chiA < b || st.chiB < b))
            pairState((i, j)) = recountPair(i, j)
        }
        pairStale.clear()
        connected((i, j) => pairState((i, j)).valid)
      }

    def onDelete(v: Int): Unit = if (fast) inst.timeLeaderUpdate {
      for ((i, j) <- pairIdx) {
        val st = pairState((i, j))
        if (st.valid) {
          if (v == st.leaderA || v == st.leaderB) pairStale.add((i, j))
          else {
            st.chiA -= g.butterfliesLost(masks(i), masks(j), alive, st.leaderA, v)
            st.chiB -= g.butterfliesLost(masks(i), masks(j), alive, st.leaderB, v)
          }
        }
      }
    }

    val Inf = LocalGraph.Inf
    var bestMask: Array[Boolean] = null
    var bestQd = Inf
    var go = true
    var lastDeleted: Seq[Int] = Nil // empty only before the first round
    val dists = new Array[Array[Int]](m)
    while (go) {
      inst.rounds += 1
      if (fast && lastDeleted.nonEmpty)
        inst.timeQueryDist(dists.foreach(FastDist.update(g, alive, _, lastDeleted)))
      else for (i <- 0 until m) dists(i) = inst.timeQueryDist(g.bfs(Seq(qs(i)), alive))
      if (dists.head(qs.last) == Inf) go = false
      else {
        var maxQd = 0
        val qd = new Array[Int](g.n)
        var v = 0
        while (v < g.n) {
          if (alive(v)) {
            var i = 0
            while (i < m) { qd(v) = math.max(qd(v), dists(i)(v)); i += 1 } // Inf wins
            maxQd = math.max(maxQd, qd(v))
          }
          v += 1
        }
        if (maxQd != Inf && maxQd < bestQd) { bestMask = alive.clone(); bestQd = maxQd }
        val batch = (0 until g.n).filter(v => alive(v) && qd(v) == maxQd)
        if (batch.exists(qs.contains(_))) go = false
        else BCCEngine.cascade(g, alive, intraDeg, kOf, qs.contains, batch, onDelete) match {
          case None => go = false
          case Some(removed) =>
            lastDeleted = removed
            if (!metaConnected()) go = false
        }
      }
    }

    Option(bestMask).map { mask =>
      val ids = (0 until g.n).iterator.filter(mask).map(g.ids).toSet
      MBCCResult(ids, labs, bestQd, inst.rounds)
    }
  }
}
