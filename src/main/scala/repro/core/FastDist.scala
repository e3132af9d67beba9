package repro.core

import repro.graph.LocalGraph

/** Algorithm 5: query distances brought up to date after a deletion round,
  * without a search from the query.
  *
  * The paper's contract holds: only vertices farther than
  * `d_min = min over deleted v of dist(v, q)` can change, and only upward.
  * The update is decremental, in the style of Even and Shiloach (J. ACM
  * 28(1), 1981) and Ramalingam and Reps (J. Algorithms 21, 1996): besides
  * the deleted vertices' adjacency, it touches only the children it must
  * decide and the vertices whose distance grows, with their adjacency. Call
  * a vertex's alive neighbours one layer closer to the query its parents.
  *  1. Affected vertices: the children of the deleted vertices are decided
  *     in increasing old distance; a child whose parents are all dead or
  *     affected is affected, and its own children are decided in turn.
  *  2. New distances: each affected vertex starts from its best unaffected
  *     alive neighbour, and a BFS merged with those starts in distance order
  *     (a unit-weight Dijkstra) runs inside the affected set. Affected
  *     vertices it does not reach become [[LocalGraph.Inf]].
  *
  * One instance serves every round and every query of a search; its work
  * arrays are allocated by the first update, so a search that ends after
  * one round allocates none.
  */
final class FastDist(g: LocalGraph) {
  private val Inf = LocalGraph.Inf
  // per-vertex stamp, relative to this update's `epoch`: below it unvisited,
  // `epoch` visited and kept, `epoch + 1` affected, `epoch + 2` settled anew.
  // An instance serves one search, at most n rounds of m updates, so the
  // epoch (3 per update) stays far inside the Int range
  private var mark: Array[Int] = null
  private var epoch = 0
  private var affectedList: Array[Int] = null
  // the children of affected vertices still to decide, then the BFS queue
  private var queue: Array[Int] = null
  // (distance << 32 | vertex), sorted: the deleted vertices' children, then
  // the affected vertices' starts
  private var keys: Array[Long] = null

  /** Update `dist` (distance to one query) in place after `deleted` were
    * removed. `alive` must already reflect the removal; `dist` must still
    * hold the pre-removal values, the deleted vertices' included, and equal
    * a BFS over the graph before the removal at every alive and deleted
    * vertex. Afterwards it equals a BFS over `alive` at those vertices.
    */
  def update(alive: Array[Boolean], dist: Array[Int], deleted: Array[Int]): Unit = {
    if (deleted.isEmpty) return
    if (mark == null) {
      mark = new Array[Int](g.n)
      affectedList = new Array[Int](64)
      queue = new Array[Int](64)
      keys = new Array[Long](64)
    }
    epoch += 3
    val kept = epoch
    val affected = epoch + 1
    val settled = epoch + 2

    // 1. the affected vertices. The deleted vertices' children are decided
    // in increasing old distance, merged with the children of vertices
    // found affected, so a child is decided once its parents' layer is
    var nk = 0
    var i = 0
    while (i < deleted.length) {
      val v = deleted(i)
      if (dist(v) != Inf) {
        val child = dist(v) + 1
        val ns = g.neighbors(v)
        var j = 0
        while (j < ns.length) {
          val w = ns(j)
          if (alive(w) && dist(w) == child && mark(w) < kept) {
            mark(w) = kept
            if (nk == keys.length) keys = java.util.Arrays.copyOf(keys, 2 * nk)
            keys(nk) = child.toLong << 32 | w
            nk += 1
          }
          j += 1
        }
      }
      i += 1
    }
    java.util.Arrays.sort(keys, 0, nk)
    var na = 0
    var head = 0
    var tail = 0
    i = 0
    while (i < nk || head < tail) {
      val w =
        if (head == tail || i < nk && (keys(i) >>> 32) <= dist(queue(head))) { i += 1; keys(i - 1).toInt }
        else { head += 1; queue(head - 1) }
      if (!hasParent(w, alive, dist)) {
        mark(w) = affected
        if (na == affectedList.length) affectedList = java.util.Arrays.copyOf(affectedList, 2 * na)
        affectedList(na) = w
        na += 1
        val child = dist(w) + 1
        val ns = g.neighbors(w)
        var j = 0
        while (j < ns.length) {
          val c = ns(j)
          if (alive(c) && dist(c) == child && mark(c) < kept) {
            mark(c) = kept
            if (tail == queue.length) queue = java.util.Arrays.copyOf(queue, 2 * tail)
            queue(tail) = c
            tail += 1
          }
          j += 1
        }
      }
    }

    // 2. new distances for the affected vertices: starts from their best
    // unaffected neighbours, then a BFS inside the affected set in merged
    // distance order
    if (keys.length < na) keys = new Array[Long](math.max(2 * keys.length, na))
    if (queue.length < na) queue = new Array[Int](math.max(2 * queue.length, na))
    var nk2 = 0
    i = 0
    while (i < na) {
      val a = affectedList(i)
      var best = Inf
      val ns = g.neighbors(a)
      var j = 0
      while (j < ns.length) {
        val u = ns(j)
        if (alive(u) && mark(u) != affected && dist(u) < best - 1) best = dist(u) + 1
        j += 1
      }
      dist(a) = best
      if (best != Inf) { keys(nk2) = best.toLong << 32 | a; nk2 += 1 }
      i += 1
    }
    java.util.Arrays.sort(keys, 0, nk2)
    head = 0
    tail = 0 // a vertex is queued at most once: its distance only falls
    i = 0
    while (i < nk2 || head < tail) {
      val u =
        if (head == tail || i < nk2 && (keys(i) >>> 32) <= dist(queue(head))) { i += 1; keys(i - 1).toInt }
        else { head += 1; queue(head - 1) }
      if (mark(u) == affected) {
        mark(u) = settled
        val du = dist(u)
        val ns = g.neighbors(u)
        var j = 0
        while (j < ns.length) {
          val w = ns(j)
          if (mark(w) == affected && alive(w) && dist(w) > du + 1) { dist(w) = du + 1; queue(tail) = w; tail += 1 }
          j += 1
        }
      }
    }

    i = 0
    while (i < deleted.length) { dist(deleted(i)) = Inf; i += 1 }
  }

  /** `w` has an alive, unaffected neighbour one layer closer to the query. */
  private def hasParent(w: Int, alive: Array[Boolean], dist: Array[Int]): Boolean = {
    val parent = dist(w) - 1
    val ns = g.neighbors(w)
    var j = 0
    while (j < ns.length && !(alive(ns(j)) && dist(ns(j)) == parent && mark(ns(j)) != epoch + 1)) j += 1
    j < ns.length
  }
}

object FastDist {

  /** One update through a fresh instance (see [[FastDist.update]]). */
  def update(g: LocalGraph, alive: Array[Boolean], dist: Array[Int], deleted: Array[Int]): Unit =
    new FastDist(g).update(alive, dist, deleted)
}
