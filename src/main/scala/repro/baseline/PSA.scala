package repro.baseline

import repro.core.Refine
import repro.eval.Instrument
import repro.graph.LocalGraph

/** Baseline: Progressive minimum k-core Search Algorithm (Li et al., PVLDB
  * 2019 — the paper's PSA competitor). Label-blind.
  *
  * Finds a *small* connected k-core containing the query vertices by
  * progressive expansion: grow a candidate around the queries in BFS order
  * (restricted to vertices whose global coreness can support k), doubling
  * the candidate size until it contains a connected k-core with the
  * queries; then shrink it with the same farthest-vertex greedy peeling.
  *
  * The work follows the explored ball: the BFS stops after the layer that
  * fills the current candidate size, and each doubling step and the shrink
  * run on the subgraph induced by their own vertices.
  */
object PSA {

  /** Full PSA search. `k` defaults to the minimum coreness of the queries
    * (the same auto-parameter policy the BCC methods use).
    */
  def run(
      g: LocalGraph,
      queryIds: Seq[Long],
      k: Int = -1,
      inst: Instrument = new Instrument): Option[Set[Long]] = inst.timeTotal {
    val qs = queryIds.map(id => g.indexOf.getOrElse(id, return None))
    val coreness = g.coreness()
    val kk = if (k > 0) k else math.max(1, qs.map(coreness).min)
    if (qs.exists(coreness(_) < kk)) return None

    // progressive doubling until a connected k-core contains all queries
    val cand = new Candidates(g, qs, coreness, kk)
    var size = math.max(qs.size * 4, 16)
    if (!cand.reach(size)) size = cand.count
    if (size == 0) return None
    var found: Array[Int] = null
    while (found == null && (cand.reach(size) || size <= cand.count * 2)) {
      found = connectedCore(g, cand.prefix(size), qs, kk)
      size *= 2
    }
    if (found == null) return None

    // shrink: greedy farthest-vertex peeling with k-core maintenance
    val sub = g.inducedOn(found)
    val lq = qs.map(java.util.Arrays.binarySearch(found, _)).toArray
    val isQuery = new Array[Boolean](sub.n)
    lq.foreach(isQuery(_) = true)
    val alive = Array.fill(sub.n)(true)
    val deg = Array.tabulate(sub.n)(sub.degree)
    val rounds = new Refine.Rounds(alive)
    var go = true
    while (go) {
      inst.rounds += 1
      val batch = rounds.next(lq.map(q => sub.bfs(Seq(q), alive)))
      if (batch.exists(isQuery)) go = false
      else cascade(sub, alive, deg, kk, isQuery, batch) match {
        case null    => go = false
        case removed => rounds.deleted(removed)
      }
    }
    // the start is connected, so the first round's distances are finite and
    // there is a best snapshot
    rounds.best.map(mask => (0 until sub.n).filter(mask).map(sub.ids).toSet)
  }

  /** Delete `seeds`, then every alive vertex whose alive degree `deg`
    * drops below k; returns the removed vertices, or null as soon as a
    * query vertex would go. The label-blind twin of `BCCEngine.cascade`,
    * kept apart so that the BCC methods' cascade keeps its own call sites.
    */
  private def cascade(
      g: LocalGraph,
      alive: Array[Boolean],
      deg: Array[Int],
      k: Int,
      isQuery: Array[Boolean],
      seeds: Array[Int]): Array[Int] = {
    // FIFO queue; a vertex re-enters each time its degree drops while below k
    var queue = java.util.Arrays.copyOf(seeds, math.max(16, 2 * seeds.length))
    var head = 0
    var tail = seeds.length
    var nRemoved = 0
    val removed = new Array[Int](g.n)
    while (head < tail) {
      val v = queue(head)
      head += 1
      if (alive(v)) {
        if (isQuery(v)) return null
        alive(v) = false
        removed(nRemoved) = v
        nRemoved += 1
        val ns = g.neighbors(v)
        var j = 0
        while (j < ns.length) {
          val u = ns(j)
          if (alive(u)) {
            deg(u) -= 1
            if (deg(u) < k) {
              if (tail == queue.length) queue = java.util.Arrays.copyOf(queue, 2 * tail)
              queue(tail) = u
              tail += 1
            }
          }
          j += 1
        }
      }
    }
    java.util.Arrays.copyOf(removed, nRemoved)
  }

  /** The vertices (ascending) of the component holding every query in the
    * k-core of the subgraph induced by `verts` (ascending), or null.
    */
  private def connectedCore(g: LocalGraph, verts: Array[Int], qs: Seq[Int], k: Int): Array[Int] = {
    val sub = g.inducedOn(verts)
    val lq = qs.map(java.util.Arrays.binarySearch(verts, _))
    val core = sub.kCoreMask(k)
    if (!lq.forall(core)) return null
    val comp = sub.componentOf(lq.head, core)
    if (!lq.forall(comp)) null else verts.indices.filter(comp).map(verts).toArray
  }

  /** The candidates in (BFS distance from the queries, index) order: the
    * vertices of coreness >= k among those the BFS reaches, which explores
    * every vertex. The BFS runs one layer at a time, only as far as the
    * candidates asked for so far need.
    */
  private final class Candidates(g: LocalGraph, qs: Seq[Int], coreness: Array[Int], k: Int) {
    private val seen = new Array[Boolean](g.n)
    private var queue = new Array[Int](16) // BFS order, each layer sorted by index
    private var head = 0 // first vertex of the layer to expand next
    private var tail = 0
    private var list = new Array[Int](16)
    /** Candidates found so far; all of them once [[reach]] returns false. */
    var count = 0

    for (q <- qs if !seen(q)) { seen(q) = true; push(q) }
    endLayer(0)

    private def push(v: Int): Unit = {
      if (tail == queue.length) queue = java.util.Arrays.copyOf(queue, 2 * tail)
      queue(tail) = v
      tail += 1
    }

    /** Sort the layer `queue(from until tail)` by index and take its candidates. */
    private def endLayer(from: Int): Unit = {
      java.util.Arrays.sort(queue, from, tail)
      var i = from
      while (i < tail) {
        val v = queue(i)
        if (coreness(v) >= k) {
          if (count == list.length) list = java.util.Arrays.copyOf(list, 2 * count)
          list(count) = v
          count += 1
        }
        i += 1
      }
    }

    /** Explore layers until `size` candidates are known; false if the BFS
      * ran out first.
      */
    def reach(size: Int): Boolean = {
      while (count < size && head < tail) {
        val from = tail
        while (head < from) {
          val ns = g.neighbors(queue(head))
          head += 1
          var j = 0
          while (j < ns.length) {
            val w = ns(j)
            if (!seen(w)) { seen(w) = true; push(w) }
            j += 1
          }
        }
        endLayer(from)
      }
      count >= size
    }

    /** The first `size` candidates (all, if fewer), ascending. */
    def prefix(size: Int): Array[Int] = {
      val p = java.util.Arrays.copyOf(list, math.min(size, count))
      java.util.Arrays.sort(p)
      p
    }
  }
}
