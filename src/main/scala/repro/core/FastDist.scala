package repro.core

import repro.graph.LocalGraph

/** Algorithm 5: fast (partial) query-distance recomputation.
  *
  * After a deletion round only vertices whose old distance exceeds
  * `d_min = min over deleted v of dist(v, q)` can change (and only upward),
  * so the update BFS restarts from the surviving `d_min` frontier `S_s`
  * instead of from the query vertex.
  */
object FastDist {

  /** Update `dist` (distance-to-q) in place after `deleted` vertices were
    * removed. `alive` must already reflect the removal; `dist` must still
    * hold the pre-removal values (including for the deleted vertices).
    */
  def update(
      g: LocalGraph,
      alive: Array[Boolean],
      dist: Array[Int],
      deleted: Array[Int]): Unit = {
    if (deleted.isEmpty) return
    var dMin = LocalGraph.Inf
    var i = 0
    while (i < deleted.length) { dMin = math.min(dMin, dist(deleted(i))); i += 1 }
    i = 0
    while (i < deleted.length) { dist(deleted(i)) = LocalGraph.Inf; i += 1 }
    if (dMin == LocalGraph.Inf) return // only unreachable vertices died

    // S_u: alive vertices with old dist > dMin -> unknown; S_s: == dMin
    val queue = new Array[Int](g.n) // a vertex enters once: in S_s, or when reached
    var tail = 0
    var v = 0
    while (v < g.n) {
      if (alive(v)) {
        if (dist(v) > dMin && dist(v) != LocalGraph.Inf) dist(v) = LocalGraph.Inf
        if (dist(v) == dMin) { queue(tail) = v; tail += 1 }
      }
      v += 1
    }
    var head = 0
    while (head < tail) {
      val u = queue(head)
      head += 1
      val du = dist(u)
      val ns = g.neighbors(u)
      var j = 0
      while (j < ns.length) {
        val w = ns(j)
        if (alive(w) && dist(w) == LocalGraph.Inf) {
          dist(w) = du + 1
          queue(tail) = w
          tail += 1
        }
        j += 1
      }
    }
  }
}
