package repro.core

import repro.eval.Instrument
import repro.graph.LocalGraph

/** The greedy refinement loop of Algorithm 1 with bulk deletion over m >= 2
  * label groups, shared by Online-BCC (naive mode: full BFS + a recount of
  * every label pair the stop test consults, every round), LP-BCC (fast mode:
  * Algorithm 5 incremental distances + Algorithm 6/7 leader-pair tracking)
  * and mBCC (Algorithm 9, in either mode). All methods in the paper use bulk
  * deletion: every vertex at the current maximum query distance is removed
  * per round.
  *
  * The loop snapshots each intermediate graph that is a *connected* valid
  * BCC and finally returns the snapshot with minimum query distance — the
  * 2-approximation argument of Theorem 3.
  */
object Refine {

  sealed trait Mode
  /** Online-BCC: recompute everything from scratch each round. */
  case object Naive extends Mode
  /** LP-BCC: incremental distances + leader-pair butterfly maintenance. */
  case object FastLP extends Mode

  private val Inf = LocalGraph.Inf

  /** Run the loop on a fresh engine over candidate `c`, seeded with its count. */
  def fromCandidate(
      c: Candidate,
      params: BCCParams,
      mode: Mode,
      inst: Instrument,
      computeDiameter: Boolean): Option[BCCResult] = {
    val e = new BCCEngine(c.g0, params, c.ql, c.qr, inst)
    e.seedChi(c.chi)
    run(e, mode, computeDiameter)
  }

  /** Run the loop on a candidate engine whose groups are their cores. It
    * stops once the label meta-graph (an edge between two groups whose
    * bipartite graph reaches b on both sides, Def. 7) is disconnected; for
    * m = 2 that is the butterfly constraint of Def. 4. Returns None when it
    * is disconnected from the start or no connected snapshot containing Q
    * exists; the result carries the labels of groups 0 and 1.
    */
  def run(e: BCCEngine, mode: Mode, computeDiameter: Boolean = true): Option[BCCResult] = {
    val g = e.g
    val inst = e.inst
    val fast = mode == FastLP
    val pairs = e.pairs
    var lastDeleted: Array[Int] = null // null only before the first round
    // each query's distances: a BFS, or Algorithm 5 after a round in LP mode
    val dists = new Array[Array[Int]](e.m)
    val fastDist = new FastDist(g)
    def updateDists(): Unit = inst.timeQueryDist {
      for (i <- 0 until e.m)
        if (fast && lastDeleted != null) fastDist.update(e.alive, dists(i), lastDeleted)
        else dists(i) = g.bfs(Seq(e.queries(i)), e.alive)
    }
    updateDists()

    // Algorithm 6 on both sides of pair p, each from its own query's distances
    def identify(p: Int): Unit =
      for (s <- 0 to 1) pairs(p).leaders(s) = LeaderPair.identify(e, p, s, dists(pairs(p).groups(s)))
    if (fast) {
      if (!e.chiInitialized) e.fullButterflyCount() // Algorithm 2 usually seeds this
      for (p <- pairs.indices if pairs(p).valid) identify(p)
    }
    val hook: Int => Unit =
      if (!fast) _ => ()
      else v => inst.timeLeaderUpdate {
        var p = 0
        while (p < pairs.length) {
          if (pairs(p).valid) {
            LeaderPair.updateOnDeletion(e, p, pairs(p).leaders(0), v)
            LeaderPair.updateOnDeletion(e, p, pairs(p).leaders(1), v)
          }
          p += 1
        }
      }

    // Does pair p still reach b on both sides? Online recounts it; LP trusts
    // its leaders while both are alive and >= b, and otherwise recounts and
    // re-identifies them
    def pairOk(p: Int): Boolean = {
      val pr = pairs(p)
      def leaderOk(l: Int): Boolean = e.alive(l) && pr.chi(l) >= e.b
      pr.valid && (fast && leaderOk(pr.leaders(0)) && leaderOk(pr.leaders(1)) || {
        e.count(p)
        if (fast && pr.valid) identify(p)
        pr.valid
      })
    }
    // Cross-group connectivity: union-find over the label meta-graph,
    // consulting a pair only while its groups are apart
    def metaConnected(ok: Int => Boolean): Boolean = {
      val parent = Array.range(0, e.m)
      def find(x: Int): Int = { var r = x; while (parent(r) != r) r = parent(r); r }
      var parts = e.m
      var p = 0
      while (parts > 1 && p < pairs.length) {
        val a = find(pairs(p).groups(0))
        val c = find(pairs(p).groups(1))
        if (a != c && ok(p)) { parent(a) = c; parts -= 1 }
        p += 1
      }
      parts == 1
    }
    if (!metaConnected(pairs(_).valid)) return None

    val rounds = new Rounds(e.alive)
    var go = true

    while (go) {
      inst.rounds += 1
      if (lastDeleted != null) updateDists()

      if (dists(0)(e.queries(e.m - 1)) == Inf) go = false // Q disconnected: no further BCC
      else {
        val batch = rounds.next(dists)
        if (batch.exists(e.isQuery(_))) go = false
        else e.deleteCascade(batch, hook) match {
          case None => go = false // a query vertex was peeled
          case Some(removed) =>
            rounds.deleted(removed)
            lastDeleted = removed
            if (!metaConnected(pairOk)) go = false
        }
      }
    }

    rounds.best.map { mask =>
      val ids = (0 until g.n).iterator.filter(mask).map(g.ids).toSet
      val diam = if (computeDiameter) g.diameter(mask) else -1
      BCCResult(ids, e.labels(0), e.labels(1), rounds.bestQd, diam, inst.rounds)
    }
  }

  /** The per-round bookkeeping of bulk deletion, shared with CTC and PSA:
    * each round's batch (the alive vertices at the largest query distance,
    * Def. 5) from one pass, and a deletion log from which the best snapshot
    * (the graph at the start of the round with the smallest finite query
    * distance) is rebuilt once at the end.
    *
    * @param alive the live mask the caller deletes from (read, not written)
    */
  private[repro] final class Rounds(alive: Array[Boolean]) {
    private val n = alive.length
    private val batch = new Array[Int](n)
    // round in which each vertex was deleted: MaxValue while alive, -1 if
    // dead from the start
    private val deletedIn = new Array[Int](n)
    locally {
      var v = 0
      while (v < n) { deletedIn(v) = if (alive(v)) Int.MaxValue else -1; v += 1 }
    }
    private var round = 0
    private var bestRound = -1
    var bestQd: Int = Inf

    /** Start a round: the vertices to delete, given each query's distances
      * (a vertex's query distance is its max over `dists`, Inf-aware).
      */
    def next(dists: Array[Array[Int]]): Array[Int] = {
      round += 1
      var maxQd = 0
      var size = 0
      var v = 0
      while (v < n) {
        if (alive(v)) {
          var qd = 0
          var i = 0
          while (i < dists.length) { qd = math.max(qd, dists(i)(v)); i += 1 }
          if (qd > maxQd) { maxQd = qd; size = 0 }
          if (qd == maxQd) { batch(size) = v; size += 1 }
        }
        v += 1
      }
      if (maxQd != Inf && maxQd < bestQd) { bestQd = maxQd; bestRound = round }
      java.util.Arrays.copyOf(batch, size)
    }

    /** Log the vertices removed in the current round. */
    def deleted(removed: Array[Int]): Unit = {
      var i = 0
      while (i < removed.length) { deletedIn(removed(i)) = round; i += 1 }
    }

    /** Mask of the best snapshot, if any round had a finite query distance.
      * Vertices removed by a cascade that was then abandoned stay unlogged:
      * they were alive at the start of that round and of every earlier one.
      */
    def best: Option[Array[Boolean]] =
      if (bestRound < 0) None
      else {
        val mask = new Array[Boolean](n)
        var v = 0
        while (v < n) { mask(v) = deletedIn(v) >= bestRound; v += 1 }
        Some(mask)
      }
  }
}
