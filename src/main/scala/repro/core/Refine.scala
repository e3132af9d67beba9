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

    var distL = inst.timeQueryDist(g.bfs(Seq(e.ql), e.alive))
    var distR = inst.timeQueryDist(g.bfs(Seq(e.qr), e.alive))

    // Leader pair setup: one initial full count, then Algorithm 7 updates.
    var lLeft = -1
    var lRight = -1
    if (mode == FastLP) {
      if (!e.chiInitialized) e.fullButterflyCount() // Algorithm 2 usually seeds this
      lLeft = LeaderPair.identify(e, left = true, distL)
      lRight = LeaderPair.identify(e, left = false, distR)
    }

    var bestMask: Array[Boolean] = null
    var bestQd = Inf
    var lastDeleted: Seq[Int] = Nil // empty only before the first round
    var go = true

    while (go) {
      inst.rounds += 1
      if (lastDeleted.nonEmpty) mode match {
        case Naive =>
          distL = inst.timeQueryDist(g.bfs(Seq(e.ql), e.alive))
          distR = inst.timeQueryDist(g.bfs(Seq(e.qr), e.alive))
        case FastLP =>
          inst.timeQueryDist {
            FastDist.update(g, e.alive, distL, lastDeleted)
            FastDist.update(g, e.alive, distR, lastDeleted)
          }
      }

      if (distL(e.qr) == Inf) go = false // Q disconnected: no further BCC
      else {
        // query distance per alive vertex (Def. 5), Inf-aware
        val qd = new Array[Int](g.n)
        var maxQd = 0
        var v = 0
        while (v < g.n) {
          if (e.alive(v)) {
            qd(v) = math.max(distL(v), distR(v)) // Inf if either side is unreachable
            maxQd = math.max(maxQd, qd(v))
          }
          v += 1
        }
        if (maxQd != Inf && maxQd < bestQd) {
          bestMask = e.alive.clone()
          bestQd = maxQd
        }
        val batch = (0 until g.n).filter(v => e.alive(v) && qd(v) == maxQd)
        if (batch.contains(e.ql) || batch.contains(e.qr)) go = false
        else {
          val hook: Int => Unit =
            if (mode == Naive) _ => ()
            else v => inst.timeLeaderUpdate {
              if (lLeft >= 0) LeaderPair.updateOnDeletion(e, lLeft, v)
              if (lRight >= 0) LeaderPair.updateOnDeletion(e, lRight, v)
            }
          e.deleteCascade(batch, hook) match {
            case None => go = false // a query vertex was peeled
            case Some(removed) =>
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
    }

    Option(bestMask).map { mask =>
      val ids = (0 until g.n).iterator.filter(mask).map(g.ids).toSet
      val diam = if (computeDiameter) g.diameter(mask) else -1
      BCCResult(ids, e.leftLabel, e.rightLabel, bestQd, diam, inst.rounds)
    }
  }
}
