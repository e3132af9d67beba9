package repro.baseline

import repro.core.{FastDist, Refine}
import repro.eval.Instrument
import repro.graph.LocalGraph

/** Baseline: Closest Truss Community search (Huang et al., PVLDB 2015 —
  * the paper's CTC competitor). Label-blind.
  *
  * 1. Pick the largest k such that a connected k-truss contains all query
  *    vertices: the first query's component over the edges of trussness
  *    >= k, read from the graph's cached truss decomposition.
  * 2. Starting from that component, iteratively bulk-delete the vertices
  *    farthest from the queries while maintaining the k-truss (edges must
  *    stay in >= k-2 triangles), and return the snapshot with the minimum
  *    query distance — the same greedy 2-approximation framework the BCC
  *    paper adopts.
  *
  * The k-truss is maintained on edge ids, incrementally as in CTC's own bulk
  * deletion: supports start from the graph's per-k support memo, a deleted
  * vertex costs each live triangle through it one support on the opposite
  * edge, and an edge whose support drops below k-2 dies and costs its live
  * triangles the same. Query distances after the first round come from the
  * decremental Algorithm 5 update that LP-BCC uses ([[repro.core.FastDist]]).
  */
object CTC {

  private val Inf = LocalGraph.Inf

  /** Full CTC search; returns the discovered community's external ids.
    * `trussCache` is unused (the graph caches its own truss decomposition,
    * [[LocalGraph.trussIndex]]); it stays for callers that still pass one.
    */
  def run(
      g: LocalGraph,
      queryIds: Seq[Long],
      inst: Instrument = new Instrument,
      trussCache: Option[Map[(Int, Int), Int]] = None): Option[Set[Long]] = inst.timeTotal {
    val qs = queryIds.map(id => g.indexOf.getOrElse(id, return None))
    if (qs.isEmpty) return None
    val s = new Search(g, qs)
    var k = s.kMax
    while (k >= 2 && !s.start(k)) k -= 1
    if (k < 2) None else s.refine(inst)
  }

  /** One search, in arrays over the graph's vertices and edge ids that every
    * round reuses; the per-round BFS and truss maintenance touch only the
    * current component.
    */
  private final class Search(g: LocalGraph, queries: Seq[Int]) {
    private val t = g.trussIndex
    private val n = g.n
    private val isQuery = new Array[Boolean](n)
    /** The distinct queries, the first query first. */
    private val qs: Array[Int] = {
      val out = new Array[Int](queries.size)
      var c = 0
      for (q <- queries if !isQuery(q)) { isQuery(q) = true; out(c) = q; c += 1 }
      java.util.Arrays.copyOf(out, c)
    }
    private var k = 0
    /** Support of each live edge in the current k-truss, -1 for a dead
      * edge: the graph's shared per-k memo until [[refine]] copies it.
      */
    private var sup: Array[Int] = null
    private val alive = new Array[Boolean](n) // the current component
    private var comp = new Array[Int](n) // its vertices
    private var size = 0
    private var next = new Array[Int](n) // the next component, or a BFS queue
    private val reached = new Array[Boolean](n) // marks `next` while it is built
    private val nbrs = new Array[Int](n) // a deleted vertex's live neighbours
    private val marked = new Array[Boolean](n) // marks `nbrs`
    private var dying = new Array[Int](16) // edges whose support fell below k-2
    private var nDying = 0

    /** The smallest, over the queries, of the largest trussness on a query's
      * edges (2 for a query without edges).
      */
    def kMax: Int = {
      var kq = Int.MaxValue
      var i = 0
      while (i < qs.length) {
        var best = 2
        var s = t.off(qs(i))
        while (s < t.off(qs(i) + 1)) { best = math.max(best, t.truss(t.eid(s))); s += 1 }
        kq = math.min(kq, best)
        i += 1
      }
      kq
    }

    /** Take the first query's component over the edges of trussness >= k
      * as the start; false if it does not hold every query.
      */
    def start(k: Int): Boolean = {
      this.k = k
      sup = t.supportIn(k)
      val tail = component()
      val ok = holdsQueries(tail)
      if (ok) {
        System.arraycopy(next, 0, comp, 0, tail)
        size = tail
        var i = 0
        while (i < size) { alive(comp(i)) = true; i += 1 }
      }
      unmark(tail)
      ok
    }

    /** The greedy bulk deletion from the start, with the best snapshot. */
    def refine(inst: Instrument): Option[Set[Long]] = {
      sup = sup.clone()
      val dists = Array.fill(qs.length)(new Array[Int](n))
      val fastDist = new FastDist(g)
      val rounds = new Refine.Rounds(alive)
      var removed: Array[Int] = null // the vertices the last round removed
      var go = true
      while (go) {
        inst.rounds += 1
        var i = 0
        while (i < qs.length) {
          if (removed == null) distances(qs(i), dists(i)) else fastDist.update(alive, dists(i), removed)
          i += 1
        }
        val batch = rounds.next(dists)
        if (holdsQuery(batch)) go = false
        else {
          removed = delete(batch)
          if (removed == null) go = false else rounds.deleted(removed)
        }
      }
      // the start is connected, so the first round has a finite distance
      rounds.best.map { mask =>
        val ids = Set.newBuilder[Long]
        var v = 0
        while (v < n) { if (mask(v)) ids += g.ids(v); v += 1 }
        ids.result()
      }
    }

    /** The first query's component over the live edges, into `next` and
      * marked in `reached`; returns its size.
      */
    private def component(): Int = {
      next(0) = qs(0)
      reached(qs(0)) = true
      var head = 0
      var tail = 1
      while (head < tail) {
        val u = next(head)
        head += 1
        val ns = g.neighbors(u)
        val base = t.off(u)
        var j = 0
        while (j < ns.length) {
          val w = ns(j)
          if (!reached(w) && sup(t.eid(base + j)) >= 0) { reached(w) = true; next(tail) = w; tail += 1 }
          j += 1
        }
      }
      tail
    }

    /** The component in `next` has an edge and reaches every query. */
    private def holdsQueries(tail: Int): Boolean = {
      var i = 0
      while (i < qs.length && reached(qs(i))) i += 1
      tail > 1 && i == qs.length
    }

    private def unmark(tail: Int): Unit = {
      var i = 0
      while (i < tail) { reached(next(i)) = false; i += 1 }
    }

    private def holdsQuery(vs: Array[Int]): Boolean = {
      var i = 0
      while (i < vs.length && !isQuery(vs(i))) i += 1
      i < vs.length
    }

    /** BFS distances from `q` over the current component (vertex-induced);
      * only the component's entries of `dist` are reset and written.
      */
    private def distances(q: Int, dist: Array[Int]): Unit = {
      var i = 0
      while (i < size) { dist(comp(i)) = Inf; i += 1 }
      dist(q) = 0
      next(0) = q
      var head = 0
      var tail = 1
      while (head < tail) {
        val u = next(head)
        head += 1
        val du = dist(u)
        val ns = g.neighbors(u)
        var j = 0
        while (j < ns.length) {
          val w = ns(j)
          if (alive(w) && dist(w) == Inf) { dist(w) = du + 1; next(tail) = w; tail += 1 }
          j += 1
        }
      }
    }

    /** Delete `batch`, restore the k-truss and keep the first query's
      * component over the live edges. Returns the vertices that left the
      * component, or null (state abandoned) if the component lost a query.
      */
    private def delete(batch: Array[Int]): Array[Int] = {
      var i = 0
      while (i < batch.length) { killVertex(batch(i)); i += 1 }
      while (nDying > 0) {
        nDying -= 1
        val e = dying(nDying)
        if (sup(e) >= 0) killEdge(e)
      }
      // edges left outside the component share no triangle with it and are
      // never reached again
      val tail = component()
      val ok = holdsQueries(tail)
      var removed: Array[Int] = null
      if (ok) {
        removed = new Array[Int](size - tail)
        var c = 0
        i = 0
        while (i < size) {
          val v = comp(i)
          if (!reached(v)) { alive(v) = false; removed(c) = v; c += 1 }
          i += 1
        }
      }
      unmark(tail)
      if (ok) { val x = comp; comp = next; next = x; size = tail }
      removed
    }

    /** Kill v's live edges: each live triangle v-w-x costs w-x one support. */
    private def killVertex(v: Int): Unit = {
      val ns = g.neighbors(v)
      val base = t.off(v)
      var c = 0
      var j = 0
      while (j < ns.length) {
        if (sup(t.eid(base + j)) >= 0) { marked(ns(j)) = true; nbrs(c) = ns(j); c += 1 }
        j += 1
      }
      var i = 0
      while (i < c) {
        val w = nbrs(i)
        val nw = g.neighbors(w)
        val bw = t.off(w)
        var p = 0
        while (p < nw.length) {
          if (nw(p) > w && marked(nw(p))) { val e = t.eid(bw + p); if (sup(e) >= 0) lose(e) }
          p += 1
        }
        i += 1
      }
      i = 0
      while (i < c) { marked(nbrs(i)) = false; i += 1 }
      j = 0
      while (j < ns.length) { sup(t.eid(base + j)) = -1; j += 1 }
    }

    /** Kill edge e: each live triangle through it costs its other two edges
      * one support. The triangles are found from e's lower-degree endpoint,
      * by binary search in the other endpoint's sorted neighbours.
      */
    private def killEdge(e: Int): Unit = {
      sup(e) = -1
      val lower = g.degree(t.lo(e)) <= g.degree(t.hi(e))
      val a = if (lower) t.lo(e) else t.hi(e)
      val b = if (lower) t.hi(e) else t.lo(e)
      val na = g.neighbors(a)
      val nb = g.neighbors(b)
      val base = t.off(a)
      var j = 0
      while (j < na.length) {
        val ea = t.eid(base + j)
        if (sup(ea) >= 0) {
          val p = java.util.Arrays.binarySearch(nb, na(j))
          if (p >= 0) {
            val eb = t.eid(t.off(b) + p)
            if (sup(eb) >= 0) { lose(ea); lose(eb) }
          }
        }
        j += 1
      }
    }

    /** One live triangle lost for edge e; it is queued to die when its
      * support first falls below k-2.
      */
    private def lose(e: Int): Unit = {
      sup(e) -= 1
      if (sup(e) == k - 3) {
        if (nDying == dying.length) dying = java.util.Arrays.copyOf(dying, 2 * nDying)
        dying(nDying) = e
        nDying += 1
      }
    }
  }
}
