package repro.core

import repro.eval.Instrument
import repro.graph.LocalGraph

/** The greedy refinement of Algorithm 1 with bulk deletion over m >= 2
  * label groups, shared by Online-BCC (naive mode: a full BFS and a recount
  * of every label pair the stop test consults, every round), LP-BCC (fast
  * mode: Algorithm 5 distances and Algorithm 6/7 leader-pair tracking) and
  * mBCC (Algorithm 9, in either mode). Each round deletes every vertex at
  * the current largest query distance, through the Algorithm 4 cascade, and
  * the answer is the snapshot with the smallest query distance, the
  * 2-approximation argument of Theorem 3. The round loop itself is
  * [[Refine.Rounds]], which CTC and PSA run with their own maintenance step.
  */
object Refine {

  sealed trait Mode
  /** Online-BCC: recompute everything from scratch each round. */
  case object Naive extends Mode
  /** LP-BCC: incremental distances + leader-pair butterfly maintenance. */
  case object FastLP extends Mode

  private val Inf = LocalGraph.Inf

  /** Algorithm 2 on `g` ([[LocalBCC.findG0]]), then the loop on its candidate. */
  def search(g: LocalGraph, qlId: Long, qrId: Long, params: BCCParams, mode: Mode, inst: Instrument,
      computeDiameter: Boolean): Option[BCCResult] =
    LocalBCC.findG0(g, qlId, qrId, params, inst).flatMap(fromCandidate(_, params, mode, inst, computeDiameter))

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
    // each query's distances: a BFS every round, or Algorithm 5 in LP mode
    val rounds = new Rounds(g, e.alive, e.queries, fast, inst)

    // Algorithm 6 on both sides of pair p, each from its own query's distances
    def identify(p: Int): Unit =
      for (s <- 0 to 1) pairs(p).leaders(s) = LeaderPair.identify(e, p, s, rounds.dists(pairs(p).groups(s)))
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
    // re-identifies them (from the distances before this round's deletion)
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

    rounds.run { batch =>
      e.deleteCascade(batch, hook) match {
        case Some(removed) if metaConnected(pairOk) => removed
        case _ => null // a query vertex was peeled, or the meta-graph fell apart
      }
    }.map { mask =>
      val diam = if (computeDiameter) g.diameter(mask) else -1
      BCCResult(rounds.ids(mask), e.labels(0), e.labels(1), rounds.bestQd, diam, inst.rounds)
    }
  }

  /** The greedy bulk-deletion loop of Algorithm 1, the one loop of the BCC
    * methods, CTC and PSA. Each round deletes every alive vertex at the
    * largest query distance (Def. 5) through the caller's maintenance step;
    * the answer is the snapshot (the graph at the start of a round) with the
    * smallest finite query distance, rebuilt once at the end from the round
    * each vertex was deleted in (Theorem 3).
    *
    * @param alive       the live mask the caller's step deletes from (read,
    *                    not written, here)
    * @param queries     the query vertices, alive throughout
    * @param incremental after a round, update the distances by Algorithm 5
    *                    ([[FastDist]]) instead of a BFS
    */
  private[repro] final class Rounds(g: LocalGraph, alive: Array[Boolean], queries: Array[Int],
      incremental: Boolean, inst: Instrument) {
    private val n = alive.length
    private val fastDist = if (incremental) new FastDist(g) else null
    /** Each query's distances over `alive`, up to date at the start of every round. */
    val dists: Array[Array[Int]] = new Array[Array[Int]](queries.length)
    inst.timeQueryDist(bfs())
    // round in which each vertex was deleted: MaxValue while alive, -1 if
    // dead from the start
    private val deletedIn = new Array[Int](n)
    locally {
      var v = 0
      while (v < n) { deletedIn(v) = if (alive(v)) Int.MaxValue else -1; v += 1 }
    }
    private var batch = new Array[Int](16) // the current round's, in its first `size` entries
    private var size = 0
    private var round = 0
    private var bestRound = -1
    var bestQd: Int = Inf

    /** Run rounds until the batch holds a query or `step` returns null.
      * `step(batch)` deletes the batch from `alive`, restores the caller's
      * structure and returns every vertex it removed, or null to stop (its
      * removals are then not logged: they were alive at the start of this
      * round and of every earlier one). Returns the best snapshot's mask, if
      * any round had a finite query distance.
      */
    def run(step: Array[Int] => Array[Int]): Option[Array[Boolean]] = {
      var go = true
      while (go) {
        inst.rounds += 1
        val qd = next()
        val removed = if (holdsQuery(qd)) null else step(java.util.Arrays.copyOf(batch, size))
        if (removed == null) go = false
        else {
          var i = 0
          while (i < removed.length) { deletedIn(removed(i)) = round; i += 1 }
          inst.timeQueryDist(update(removed))
        }
      }
      if (bestRound < 0) None
      else {
        val mask = new Array[Boolean](n)
        var v = 0
        while (v < n) { mask(v) = deletedIn(v) >= bestRound; v += 1 }
        Some(mask)
      }
    }

    /** External ids of the vertices in `mask`. */
    def ids(mask: Array[Boolean]): Set[Long] = {
      val out = Set.newBuilder[Long]
      var v = 0
      while (v < n) { if (mask(v)) out += g.ids(v); v += 1 }
      out.result()
    }

    private def bfs(): Unit = {
      var i = 0
      while (i < queries.length) { dists(i) = g.bfs(Seq(queries(i)), alive); i += 1 }
    }

    /** Bring `dists` up to date after `removed` left `alive`. */
    private def update(removed: Array[Int]): Unit =
      if (!incremental) bfs()
      else { var i = 0; while (i < dists.length) { fastDist.update(alive, dists(i), removed); i += 1 } }

    /** v's query distance: its largest distance to a query (Inf-aware). */
    private def qdOf(v: Int): Int = {
      var qd = 0
      var i = 0
      while (i < dists.length) { qd = math.max(qd, dists(i)(v)); i += 1 }
      qd
    }

    /** Start a round: put the alive vertices at the largest query distance
      * in `batch` and return that distance.
      */
    private def next(): Int = {
      round += 1
      var maxQd = 0
      size = 0
      var v = 0
      while (v < n) {
        if (alive(v)) {
          val qd = qdOf(v)
          if (qd > maxQd) { maxQd = qd; size = 0 }
          if (qd == maxQd) {
            if (size == batch.length) batch = java.util.Arrays.copyOf(batch, 2 * size)
            batch(size) = v
            size += 1
          }
        }
        v += 1
      }
      if (maxQd != Inf && maxQd < bestQd) { bestQd = maxQd; bestRound = round }
      maxQd
    }

    /** Some query is at query distance `qd`, so in the batch. When two
      * queries are apart, every vertex is at Inf from one of them, so the
      * batch is every alive vertex, queries included.
      */
    private def holdsQuery(qd: Int): Boolean = {
      var i = 0
      while (i < queries.length && qdOf(queries(i)) != qd) i += 1
      i < queries.length
    }
  }
}
