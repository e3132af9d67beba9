package repro.core

import repro.eval.Instrument
import repro.graph.LocalGraph

/** Mutable working state for the candidate community `G0` during the
  * greedy refinement loop (paper Algorithm 1, maintenance Algorithm 4).
  *
  * Tracks per-vertex liveness, intra-label degrees (for O(1) cascade core
  * maintenance), and the last full butterfly count. Deletions cascade:
  * removing a vertex decrements its same-label neighbors' intra degrees and
  * peels any that drop below their side's `k` (Algorithm 4); an `onDelete`
  * hook fires before each removal so LP-BCC can run Algorithm 7 leader
  * updates against the still-current adjacency.
  */
final class BCCEngine(
    val g: LocalGraph,
    val params: BCCParams,
    val ql: Int,
    val qr: Int,
    val inst: Instrument) {

  require(g.labels(ql) != g.labels(qr), "query vertices must have different labels")

  val leftLabel: String = g.labels(ql)
  val rightLabel: String = g.labels(qr)
  val isLeft: Array[Boolean] = new Array[Boolean](g.n)
  val isRight: Array[Boolean] = new Array[Boolean](g.n)
  val alive: Array[Boolean] = new Array[Boolean](g.n)
  locally {
    var v = 0
    while (v < g.n) {
      isLeft(v) = g.labels(v) == leftLabel
      isRight(v) = g.labels(v) == rightLabel
      alive(v) = true
      v += 1
    }
  }
  var aliveCount: Int = g.n

  /** True for the two query vertices. */
  val isQuery: Int => Boolean = v => v == ql || v == qr

  /** Degree towards alive same-label neighbors (the per-side core degree). */
  val intraDeg: Array[Int] = BCCEngine.intraDegrees(g)

  /** Butterfly degrees from the last full count (Algorithm 3); entries for
    * leader vertices are kept exact between counts via Algorithm 7, others
    * may go stale until the next full count.
    */
  var chi: Array[Long] = new Array[Long](g.n)

  /** True once `chi` holds a real count (seeded from Algorithm 2 or set by
    * [[fullButterflyCount]]).
    */
  var chiInitialized: Boolean = false

  /** Seed `chi` from a count already performed (e.g. Algorithm 2's). */
  def seedChi(values: Array[Long]): Unit = {
    require(values.length == g.n)
    chi = values.clone()
    chiInitialized = true
  }

  /** Core threshold of v's side. */
  def kOf(v: Int): Int = if (isLeft(v)) params.k1 else params.k2

  /** Full per-vertex butterfly recount over alive vertices (Algorithm 3). */
  def fullButterflyCount(): Unit = {
    inst.butterflyCountCalls += 1
    inst.timeButterflyCount { chi = g.butterflyDegrees(isLeft, isRight, alive) }
    chiInitialized = true
  }

  /** Max butterfly degree among alive vertices of one side. */
  def maxChi(left: Boolean): Long = BCCEngine.maxOn(chi, if (left) isLeft else isRight, alive)

  /** Delete `seeds` and cascade core maintenance (Algorithm 4).
    *
    * @param onDelete fired for each vertex immediately *before* it is marked
    *                 dead (its adjacency is still current), in deletion order
    * @return vertices removed (in order), or None if a query vertex would be
    *         removed — the engine is then no longer a valid BCC and the
    *         caller must stop using it.
    */
  def deleteCascade(seeds: Array[Int], onDelete: Int => Unit = _ => ()): Option[Array[Int]] =
    BCCEngine.cascade(g, alive, intraDeg, kOf, isQuery, seeds,
      v => { onDelete(v); aliveCount -= 1 })

  /** External ids of the currently alive vertices. */
  def aliveIds: Set[Long] =
    (0 until g.n).iterator.filter(alive).map(g.ids).toSet
}

object BCCEngine {

  /** Max of `chi` over the vertices in `mask` (all if null) that are alive
    * (all if null); 0 when there is none.
    */
  def maxOn(chi: Array[Long], mask: Array[Boolean], alive: Array[Boolean] = null): Long = {
    var best = 0L
    var v = 0
    while (v < chi.length) {
      if ((mask == null || mask(v)) && (alive == null || alive(v)) && chi(v) > best) best = chi(v)
      v += 1
    }
    best
  }

  /** Number of same-label neighbours of every vertex (the per-side core degree). */
  def intraDegrees(g: LocalGraph): Array[Int] = {
    val deg = new Array[Int](g.n)
    var v = 0
    while (v < g.n) {
      val lab = g.labels(v)
      val ns = g.neighbors(v)
      var j = 0
      while (j < ns.length) { if (g.labels(ns(j)) == lab) deg(v) += 1; j += 1 }
      v += 1
    }
    deg
  }

  /** Algorithm 4 over any label groups: delete `seeds`, then every alive
    * vertex whose same-label degree `intraDeg` drops below `kOf`. Fires
    * `onDelete(v)` just before `v` is marked dead; returns the removed
    * vertices in order, or None as soon as an `isQuery` vertex would go.
    */
  def cascade(
      g: LocalGraph,
      alive: Array[Boolean],
      intraDeg: Array[Int],
      kOf: Int => Int,
      isQuery: Int => Boolean,
      seeds: Array[Int],
      onDelete: Int => Unit): Option[Array[Int]] = {
    // FIFO queue; a vertex re-enters each time its degree drops while below k
    var queue = java.util.Arrays.copyOf(seeds, math.max(16, 2 * seeds.length))
    var head = 0
    var tail = seeds.length
    var removed = new Array[Int](queue.length)
    var nRemoved = 0
    while (head < tail) {
      val v = queue(head)
      head += 1
      if (alive(v)) {
        if (isQuery(v)) return None
        onDelete(v)
        alive(v) = false
        if (nRemoved == removed.length) removed = java.util.Arrays.copyOf(removed, 2 * nRemoved)
        removed(nRemoved) = v
        nRemoved += 1
        val lab = g.labels(v)
        val ns = g.neighbors(v)
        var j = 0
        while (j < ns.length) {
          val u = ns(j)
          if (alive(u) && g.labels(u) == lab) {
            intraDeg(u) -= 1
            if (intraDeg(u) < kOf(u)) {
              if (tail == queue.length) queue = java.util.Arrays.copyOf(queue, 2 * tail)
              queue(tail) = u
              tail += 1
            }
          }
          j += 1
        }
      }
    }
    Some(java.util.Arrays.copyOf(removed, nRemoved))
  }
}
