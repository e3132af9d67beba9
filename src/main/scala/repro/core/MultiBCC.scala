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
    val qg = queryIds.map(id => g.indexOf.getOrElse(id, return None))
    val labs = qg.map(g.labels)
    if (labs.distinct.length != labs.length) return None
    val m = labs.length

    // G0: per-label k_i-core component containing q_i (Alg. 9 line 1),
    // induced and re-indexed; the search runs on it, not on g
    val comps = (0 until m).map { i =>
      val c = g.labelCoreComponent(qg(i), ks(i))
      if (c.isEmpty) return None
      c
    }
    val (g0, verts) = LocalBCC.candidateGraph(g, comps)
    val n = g0.n
    val qs = qg.map(java.util.Arrays.binarySearch(verts, _))
    val isQuery = new Array[Boolean](n)
    qs.foreach(isQuery(_) = true)
    // label group of each vertex; every G0 vertex of labs(i) is in comps(i)
    val group = new Array[Int](n)
    val masks = Array.fill(m)(new Array[Boolean](n))
    val alive = new Array[Boolean](n)
    var v = 0
    while (v < n) {
      group(v) = labs.indexOf(g0.labels(v))
      masks(group(v))(v) = true
      alive(v) = true
      v += 1
    }
    val pairIdx = for (i <- 0 until m; j <- i + 1 until m) yield (i, j)

    // Per-pair butterfly check: the max-chi vertex on each side of the
    // bipartite graph between two groups (over `alive`), valid if both >= b
    def pairLeaders(p: Int): PairState = {
      val (i, j) = pairIdx(p)
      val chi = g0.butterflyDegrees(masks(i), masks(j), alive)
      var (la, ca, lb, cb) = (-1, -1L, -1, -1L)
      var v = 0
      while (v < n) {
        if (alive(v)) {
          if (masks(i)(v) && chi(v) > ca) { la = v; ca = chi(v) }
          if (masks(j)(v) && chi(v) > cb) { lb = v; cb = chi(v) }
        }
        v += 1
      }
      new PairState(la, ca, lb, cb, valid = ca >= b && cb >= b)
    }
    def recountPair(p: Int): PairState = {
      inst.butterflyCountCalls += 1
      inst.timeButterflyCount(pairLeaders(p))
    }
    // Cross-group connectivity (Def. 7): union-find over the label
    // meta-graph, checking a pair only while its groups are apart
    def connected(pairOk: Int => Boolean): Boolean = {
      val parent = Array.tabulate(m)(identity)
      def find(x: Int): Int = { var r = x; while (parent(r) != r) r = parent(r); parent(x) = r; r }
      for (p <- pairIdx.indices) {
        val (i, j) = pairIdx(p)
        if (find(i) != find(j) && pairOk(p)) parent(find(i)) = find(j)
      }
      (0 until m).map(find).distinct.size == 1
    }
    if (!connected(pairLeaders(_).valid)) return None

    val intraDeg = BCCEngine.intraDegrees(g0)
    val kOf: Int => Int = v => ks(group(v))

    // fast-mode state: per-pair leaders tracked with Algorithm 7 updates,
    // indexed like `pairIdx`
    val pairState: Array[PairState] =
      if (fast) Array.tabulate(pairIdx.length)(recountPair) else null
    val pairStale = new Array[Boolean](pairIdx.length)

    def metaConnected(): Boolean =
      if (!fast) connected(pairLeaders(_).valid)
      else {
        // refresh stale or weakened pairs with a full recount (chi only
        // decreases, so invalid pairs stay invalid and are skipped)
        for (p <- pairIdx.indices) {
          val st = pairState(p)
          if (st.valid && (pairStale(p) || st.chiA < b || st.chiB < b))
            pairState(p) = recountPair(p)
          pairStale(p) = false
        }
        connected(pairState(_).valid)
      }

    val onDelete: Int => Unit =
      if (!fast) _ => ()
      else v => inst.timeLeaderUpdate {
        var p = 0
        while (p < pairState.length) {
          val st = pairState(p)
          if (st.valid) {
            if (v == st.leaderA || v == st.leaderB) pairStale(p) = true
            else {
              val (i, j) = pairIdx(p)
              st.chiA -= g0.butterfliesLost(masks(i), masks(j), alive, st.leaderA, v)
              st.chiB -= g0.butterfliesLost(masks(i), masks(j), alive, st.leaderB, v)
            }
          }
          p += 1
        }
      }

    val Inf = LocalGraph.Inf
    val rounds = new Refine.Rounds(alive)
    var go = true
    var lastDeleted: Array[Int] = null // null only before the first round
    val dists = new Array[Array[Int]](m)
    while (go) {
      inst.rounds += 1
      if (fast && lastDeleted != null)
        inst.timeQueryDist(dists.foreach(FastDist.update(g0, alive, _, lastDeleted)))
      else for (i <- 0 until m) dists(i) = inst.timeQueryDist(g0.bfs(Seq(qs(i)), alive))
      if (dists.head(qs.last) == Inf) go = false
      else {
        val batch = rounds.next(dists)
        if (Refine.containsAny(batch, isQuery(_))) go = false
        else BCCEngine.cascade(g0, alive, intraDeg, kOf, isQuery(_), batch, onDelete) match {
          case None => go = false
          case Some(removed) =>
            rounds.deleted(removed)
            lastDeleted = removed
            if (!metaConnected()) go = false
        }
      }
    }

    rounds.best.map { mask =>
      val ids = (0 until n).iterator.filter(mask).map(g0.ids).toSet
      MBCCResult(ids, labs, rounds.bestQd, inst.rounds)
    }
  }
}
