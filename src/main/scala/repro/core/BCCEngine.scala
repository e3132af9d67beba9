package repro.core

import repro.eval.Instrument
import repro.graph.LocalGraph

/** Mutable working state of the greedy refinement loop (paper Algorithm 1,
  * maintenance Algorithm 4) over m >= 2 label groups: group `i` holds the
  * vertices carrying the label of `queries(i)` and must stay a `ks(i)`-core.
  * A (k1,k2,b)-BCC is the m = 2 case of an mBCC (Def. 7-8).
  *
  * Tracks per-vertex liveness, intra-group degrees (for O(1) cascade core
  * maintenance) and, per label pair, the butterfly state of [[BCCEngine.Pair]].
  * Deletions cascade: removing a vertex decrements its same-group neighbours'
  * intra degrees and peels any that drop below their group's `k` (Algorithm
  * 4); an `onDelete` hook fires before each removal so LP-BCC can run
  * Algorithm 7 leader updates against the still-current adjacency. Vertices
  * outside every group are dead from the start.
  */
final class BCCEngine(
    val g: LocalGraph,
    val queries: Array[Int],
    val ks: Array[Int],
    val b: Int,
    val inst: Instrument) {

  /** The (k1,k2,b)-BCC engine: group 0 is `ql`'s label, group 1 `qr`'s. */
  def this(g: LocalGraph, params: BCCParams, ql: Int, qr: Int, inst: Instrument) =
    this(g, Array(ql, qr), Array(params.k1, params.k2), params.b, inst)

  val m: Int = queries.length
  require(m >= 2 && ks.length == m, "m >= 2 queries, one core threshold each")
  val labels: Array[String] = new Array[String](m)

  /** Group of every vertex (-1 outside every group), as one mask per group too. */
  val group: Array[Int] = new Array[Int](g.n)
  val masks: Array[Array[Boolean]] = new Array[Array[Boolean]](m)
  val alive: Array[Boolean] = new Array[Boolean](g.n)
  val isQuery: Array[Boolean] = new Array[Boolean](g.n)
  /** The label pairs (i, j), i < j, in order; for m = 2 the one pair (0, 1). */
  val pairs: Array[BCCEngine.Pair] = new Array[BCCEngine.Pair](m * (m - 1) / 2)
  locally {
    var i = 0
    while (i < m) { labels(i) = g.labels(queries(i)); masks(i) = new Array[Boolean](g.n); i += 1 }
    var v = 0
    while (v < g.n) {
      i = 0
      while (i < m && g.labels(v) != labels(i)) i += 1
      group(v) = if (i < m) i else -1
      if (i < m) { masks(i)(v) = true; alive(v) = true }
      v += 1
    }
    // a query sharing an earlier query's label lands in that query's group
    i = 0
    while (i < m && group(queries(i)) == i) { isQuery(queries(i)) = true; i += 1 }
    require(i == m, "query vertices must have pairwise different labels")
    var p = 0
    for (a <- 0 until m; c <- a + 1 until m) { pairs(p) = new BCCEngine.Pair(Array(a, c), g.n); p += 1 }
  }

  /** Degree towards alive same-group neighbours (the per-group core degree). */
  val intraDeg: Array[Int] = BCCEngine.intraDegrees(g, group)

  /** True once every pair's `chi` holds a real count (seeded from Algorithm 2
    * or set by [[fullButterflyCount]]).
    */
  var chiInitialized: Boolean = false

  /** Seed the one pair's `chi` (m = 2) from a count already performed (e.g.
    * Algorithm 2's).
    */
  def seedChi(values: Array[Long]): Unit = {
    require(m == 2 && values.length == g.n)
    pairs(0).chi = values.clone()
    checkPair(0)
    chiInitialized = true
  }

  /** Per-vertex butterfly recount of pair `p` over alive vertices (Algorithm 3). */
  def count(p: Int): Unit = {
    val groups = pairs(p).groups
    inst.butterflyCountCalls += 1
    inst.timeButterflyCount { pairs(p).chi = g.butterflyDegrees(masks(groups(0)), masks(groups(1)), alive) }
    checkPair(p)
  }

  /** Recount every pair (Algorithm 3 once per pair). */
  def fullButterflyCount(): Unit = { pairs.indices.foreach(count); chiInitialized = true }

  /** Max butterfly degree of pair `p` among the alive vertices of its side `s` (0 or 1). */
  def maxChi(p: Int, s: Int): Long = BCCEngine.maxOn(pairs(p).chi, masks(pairs(p).groups(s)), alive)

  private def checkPair(p: Int): Unit = pairs(p).valid = maxChi(p, 0) >= b && maxChi(p, 1) >= b

  /** Delete `seeds` and cascade core maintenance (Algorithm 4).
    *
    * @param onDelete fired for each vertex immediately *before* it is marked
    *                 dead (its adjacency is still current), in deletion order
    * @return vertices removed (in order), or None if a query vertex would be
    *         removed — the engine is then no longer a valid BCC and the
    *         caller must stop using it.
    */
  def deleteCascade(seeds: Array[Int], onDelete: Int => Unit = _ => ()): Option[Array[Int]] =
    BCCEngine.cascade(g, alive, intraDeg, group, ks, isQuery, seeds, onDelete)
}

object BCCEngine {

  /** Butterfly state of the bipartite graph between groups `groups(0)` <
    * `groups(1)`: the degrees `chi` from the last count (Algorithm 3; a
    * leader's entry is kept exact between counts by Algorithm 7, the others
    * may go stale), one leader per side (-1 until identified), and whether
    * both sides still reach b. Degrees only fall as vertices die, so a pair
    * found invalid stays invalid.
    */
  final class Pair(val groups: Array[Int], n: Int) {
    var chi: Array[Long] = new Array[Long](n)
    val leaders: Array[Int] = Array(-1, -1)
    var valid: Boolean = true
  }

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

  /** Number of same-group neighbours of every vertex (the per-group core degree). */
  def intraDegrees(g: LocalGraph, group: Array[Int]): Array[Int] = {
    val deg = new Array[Int](g.n)
    var v = 0
    while (v < g.n) {
      val ns = g.neighbors(v)
      var j = 0
      while (j < ns.length) { if (group(ns(j)) == group(v)) deg(v) += 1; j += 1 }
      v += 1
    }
    deg
  }

  /** Algorithm 4: delete `seeds`, then every alive vertex whose same-group
    * degree `intraDeg` drops below its group's `ks`. Fires `onDelete(v)` just
    * before `v` is marked dead; returns the removed vertices in order, or
    * None as soon as an `isQuery` vertex would go.
    */
  def cascade(
      g: LocalGraph,
      alive: Array[Boolean],
      intraDeg: Array[Int],
      group: Array[Int],
      ks: Array[Int],
      isQuery: Array[Boolean],
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
        val grp = group(v)
        val ns = g.neighbors(v)
        var j = 0
        while (j < ns.length) {
          val u = ns(j)
          if (alive(u) && group(u) == grp) {
            intraDeg(u) -= 1
            if (intraDeg(u) < ks(grp)) {
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
