package repro.core

import repro.eval.Instrument
import repro.graph.LocalGraph

/** The greedy refinement loop of Algorithm 1 with bulk deletion, shared by
  * Online-BCC (naive mode: full BFS + full butterfly recount every round)
  * and LP-BCC (fast mode: Algorithm 5 incremental distances + Algorithm 6/7
  * leader-pair tracking). All methods in the paper use bulk deletion: every
  * vertex at the current maximum query distance is removed per round.
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

  /** Run the loop on a candidate engine whose initial state is a valid
    * (k1,k2,b)-BCC (cores maintained, butterfly constraint satisfiable).
    * Returns None when no connected snapshot containing Q exists.
    */
  def run(e: BCCEngine, mode: Mode, computeDiameter: Boolean = true): Option[BCCResult] = {
    val g = e.g
    val inst = e.inst

    val dists = Array(
      inst.timeQueryDist(g.bfs(Seq(e.ql), e.alive)),
      inst.timeQueryDist(g.bfs(Seq(e.qr), e.alive)))
    def distL = dists(0)
    def distR = dists(1)

    // Leader pair setup: one initial full count, then Algorithm 7 updates.
    var lLeft = -1
    var lRight = -1
    if (mode == FastLP) {
      if (!e.chiInitialized) e.fullButterflyCount() // Algorithm 2 usually seeds this
      lLeft = LeaderPair.identify(e, left = true, distL)
      lRight = LeaderPair.identify(e, left = false, distR)
    }
    val hook: Int => Unit =
      if (mode == Naive) _ => ()
      else v => inst.timeLeaderUpdate {
        if (lLeft >= 0) LeaderPair.updateOnDeletion(e, lLeft, v)
        if (lRight >= 0) LeaderPair.updateOnDeletion(e, lRight, v)
      }

    val rounds = new Rounds(e.alive)
    var lastDeleted: Array[Int] = null // null only before the first round
    var go = true

    while (go) {
      inst.rounds += 1
      if (lastDeleted != null) mode match {
        case Naive =>
          dists(0) = inst.timeQueryDist(g.bfs(Seq(e.ql), e.alive))
          dists(1) = inst.timeQueryDist(g.bfs(Seq(e.qr), e.alive))
        case FastLP =>
          inst.timeQueryDist {
            FastDist.update(g, e.alive, distL, lastDeleted)
            FastDist.update(g, e.alive, distR, lastDeleted)
          }
      }

      if (distL(e.qr) == Inf) go = false // Q disconnected: no further BCC
      else {
        val batch = rounds.next(dists)
        if (containsAny(batch, e.isQuery)) go = false
        else e.deleteCascade(batch, hook) match {
          case None => go = false // a query vertex was peeled
          case Some(removed) =>
            rounds.deleted(removed)
            lastDeleted = removed
            // Online recounts every round; LP only once a leader dies or
            // drops below b, and then re-identifies the pair
            def leadersOk: Boolean =
              lLeft >= 0 && e.alive(lLeft) && e.chi(lLeft) >= e.params.b &&
                lRight >= 0 && e.alive(lRight) && e.chi(lRight) >= e.params.b
            if (mode == Naive || !leadersOk) {
              e.fullButterflyCount()
              if (e.maxChi(true) < e.params.b || e.maxChi(false) < e.params.b) go = false
              else if (mode == FastLP) {
                lLeft = LeaderPair.identify(e, left = true, distL)
                lRight = LeaderPair.identify(e, left = false, distR)
              }
            }
        }
      }
    }

    rounds.best.map { mask =>
      val ids = (0 until g.n).iterator.filter(mask).map(g.ids).toSet
      val diam = if (computeDiameter) g.diameter(mask) else -1
      BCCResult(ids, e.leftLabel, e.rightLabel, rounds.bestQd, diam, inst.rounds)
    }
  }

  /** The per-round bookkeeping of bulk deletion, shared with [[MultiBCC]] and PSA:
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

  /** True if some vertex of `vs` satisfies `p`. */
  private[core] def containsAny(vs: Array[Int], p: Int => Boolean): Boolean = {
    var i = 0
    while (i < vs.length && !p(vs(i))) i += 1
    i < vs.length
  }
}
