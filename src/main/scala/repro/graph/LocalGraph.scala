package repro.graph

import scala.collection.mutable

/** Immutable adjacency-array labeled graph held on the driver.
  *
  * This is the substrate for (a) reference implementations that distributed
  * dataflow ops are tested against and (b) the paper's inherently sequential
  * refinement loops (Algorithms 1, 4-8), which operate on the small candidate
  * community `G0` extracted by the distributed phase.
  *
  * Vertices are dense indices `0..n-1`; `ids` maps back to external ids and
  * `labels` carries the vertex label function. The graph is simple and
  * undirected: adjacency lists are deduplicated, self-loop free, and sorted.
  */
final class LocalGraph(
    val ids: Array[Long],
    val labels: Array[String],
    val adj: Array[Array[Int]]) extends Serializable {

  /** Number of vertices. */
  val n: Int = ids.length

  /** Number of undirected edges. */
  lazy val edgeCount: Long = adj.iterator.map(_.length.toLong).sum / 2

  /** External id -> internal index. */
  lazy val indexOf: Map[Long, Int] = ids.zipWithIndex.toMap

  /** Distinct labels present in the graph. */
  lazy val labelSet: Set[String] = labels.toSet

  /** Degree of internal vertex `v`. */
  def degree(v: Int): Int = adj(v).length

  /** Neighbors of internal vertex `v`. */
  def neighbors(v: Int): Array[Int] = adj(v)

  /** True if `u` and `v` are adjacent (binary search; lists are sorted). */
  def hasEdge(u: Int, v: Int): Boolean = java.util.Arrays.binarySearch(adj(u), v) >= 0

  /** All undirected edges as canonical (u < v) internal index pairs. */
  def edges: Iterator[(Int, Int)] =
    (0 until n).iterator.flatMap(u => adj(u).iterator.filter(_ > u).map(v => (u, v)))

  /** Induced subgraph on the vertices where `keep(v)`; re-indexed. */
  def induced(keep: Array[Boolean]): LocalGraph = {
    var m = 0
    var v = 0
    while (v < n) { if (keep(v)) m += 1; v += 1 }
    val verts = new Array[Int](m)
    m = 0
    v = 0
    while (v < n) { if (keep(v)) { verts(m) = v; m += 1 }; v += 1 }
    inducedOn(verts)
  }

  /** Induced subgraph on `verts`, which must be ascending and distinct;
    * vertex `verts(i)` becomes `i`. The remap is monotone, so neighbour
    * lists stay sorted without a sort.
    */
  def inducedOn(verts: Array[Int]): LocalGraph = {
    val m = verts.length
    val newIdx = new Array[Int](n) // new index + 1; 0 = not kept
    var i = 0
    while (i < m) { newIdx(verts(i)) = i + 1; i += 1 }
    val nIds = new Array[Long](m)
    val nLabels = new Array[String](m)
    val nAdj = new Array[Array[Int]](m)
    i = 0
    while (i < m) {
      val v = verts(i)
      val ns = adj(v)
      var c = 0
      var j = 0
      while (j < ns.length) { if (newIdx(ns(j)) > 0) c += 1; j += 1 }
      val out = new Array[Int](c)
      c = 0
      j = 0
      while (j < ns.length) {
        val w = newIdx(ns(j))
        if (w > 0) { out(c) = w - 1; c += 1 }
        j += 1
      }
      nIds(i) = ids(v)
      nLabels(i) = labels(v)
      nAdj(i) = out
      i += 1
    }
    new LocalGraph(nIds, nLabels, nAdj)
  }

  /** Induced subgraph on the given external ids. */
  def inducedByIds(keepIds: Set[Long]): LocalGraph = {
    val keep = Array.tabulate(n)(v => keepIds.contains(ids(v)))
    induced(keep)
  }

  /** BFS distances from `sources` over `alive` vertices.
    * Unreachable (or dead) vertices get [[LocalGraph.Inf]].
    */
  def bfs(sources: Seq[Int], alive: Array[Boolean] = null): Array[Int] = {
    val dist = new Array[Int](n)
    java.util.Arrays.fill(dist, LocalGraph.Inf)
    val queue = new Array[Int](n) // a vertex enters once, when its distance is set
    var tail = 0
    for (s <- sources if (alive == null || alive(s)) && dist(s) != 0) {
      dist(s) = 0
      queue(tail) = s
      tail += 1
    }
    var head = 0
    while (head < tail) {
      val u = queue(head)
      head += 1
      val du = dist(u)
      val ns = adj(u)
      var i = 0
      while (i < ns.length) {
        val w = ns(i)
        if ((alive == null || alive(w)) && dist(w) == LocalGraph.Inf) {
          dist(w) = du + 1
          queue(tail) = w
          tail += 1
        }
        i += 1
      }
    }
    dist
  }

  /** Mask of the connected component containing `src` (over `alive`). */
  def componentOf(src: Int, alive: Array[Boolean] = null): Array[Boolean] =
    bfs(Seq(src), alive).map(_ != LocalGraph.Inf)

  /** Component id (min reachable index) per vertex; dead vertices get -1. */
  def components(alive: Array[Boolean] = null): Array[Int] = {
    val comp = Array.fill(n)(-1)
    var v = 0
    while (v < n) {
      if (comp(v) < 0 && (alive == null || alive(v))) {
        val d = bfs(Seq(v), alive)
        var u = 0
        while (u < n) { if (d(u) != LocalGraph.Inf && comp(u) < 0) comp(u) = v; u += 1 }
      }
      v += 1
    }
    comp
  }

  /** Coreness of every vertex (Batagelj-Zaversnik peel); dead vertices get -1.
    * Without a mask it is computed once per graph and shared by every
    * caller, who must not modify it.
    */
  def coreness(alive: Array[Boolean] = null): Array[Int] =
    if (alive == null) core else peel(alive, sameLabel = false, Int.MaxValue)

  private lazy val core: Array[Int] = peel(null, sameLabel = false, Int.MaxValue)

  /** The vertices carrying `label`, ascending (empty for an absent label).
    * Computed for every label at once on first use and shared by every
    * caller, who must not modify them.
    */
  def labelVertices(label: String): Array[Int] = byLabel.getOrElse(label, Array.emptyIntArray)

  private lazy val byLabel: Map[String, Array[Int]] = {
    val lists = mutable.HashMap[String, mutable.ArrayBuilder.ofInt]()
    var v = 0
    while (v < n) { lists.getOrElseUpdate(labels(v), new mutable.ArrayBuilder.ofInt) += v; v += 1 }
    lists.iterator.map { case (l, vs) => l -> vs.result() }.toMap
  }

  /** Coreness within each vertex's label-induced subgraph, in one peel over
    * intra-label edges (the coreness of a disjoint union is that of each part).
    * Computed on first use and shared by every caller, who must not modify it.
    */
  def labelCoreness(): Array[Int] = labelCore

  private lazy val labelCore: Array[Int] = peel(null, sameLabel = true, Int.MaxValue)

  /** The component of `src` in the k-core of its label-induced subgraph, in
    * BFS order: one BFS from `src` over the vertices of its label whose
    * [[labelCoreness]] is >= k (the k-core of a graph is exactly its
    * vertices of coreness >= k). Empty when `src` itself is not in the k-core.
    */
  def labelCoreComponent(src: Int, k: Int): Array[Int] = {
    val core = labelCoreness()
    if (core(src) < k) return Array.emptyIntArray
    val lab = labels(src)
    val seen = new Array[Boolean](n)
    var queue = new Array[Int](16)
    queue(0) = src
    seen(src) = true
    var head = 0
    var tail = 1
    while (head < tail) {
      val ns = adj(queue(head))
      head += 1
      var j = 0
      while (j < ns.length) {
        val w = ns(j)
        if (!seen(w) && core(w) >= k && labels(w) == lab) {
          seen(w) = true
          if (tail == queue.length) queue = java.util.Arrays.copyOf(queue, 2 * tail)
          queue(tail) = w
          tail += 1
        }
        j += 1
      }
    }
    java.util.Arrays.copyOf(queue, tail)
  }

  /** Batagelj-Zaversnik peel over alive vertices, counting only same-label
    * edges when `sameLabel`; the degree bins double as the vertex order.
    * Stops once every vertex left has degree >= `stopAt`: peeled vertices
    * then hold their coreness (< `stopAt`), the others a degree >= `stopAt`.
    */
  private def peel(alive: Array[Boolean], sameLabel: Boolean, stopAt: Int): Array[Int] = {
    val label: Array[Int] = if (!sameLabel) null else { // interned label ids
      val ids = mutable.HashMap[String, Int]()
      labels.map(l => ids.getOrElseUpdate(l, ids.size))
    }
    val deg = new Array[Int](n) // current degree; the coreness once peeled
    var maxDeg = 0
    var v = 0
    while (v < n) { deg(v) = peelDegree(alive, label, v); maxDeg = math.max(maxDeg, deg(v)); v += 1 }
    // vertices in (degree, index) order; bin(d + 1) = start of the degree-d block
    val bin = new Array[Int](maxDeg + 2)
    v = 0
    while (v < n) { if (deg(v) >= 0) bin(deg(v) + 1) += 1; v += 1 }
    var i = 1
    while (i <= maxDeg + 1) { bin(i) += bin(i - 1); i += 1 }
    val order = new Array[Int](bin(maxDeg + 1))
    val pos = new Array[Int](n)
    v = n - 1
    while (v >= 0) {
      if (deg(v) >= 0) { bin(deg(v) + 1) -= 1; pos(v) = bin(deg(v) + 1); order(pos(v)) = v }
      v -= 1
    }
    i = 0
    while (i < order.length && deg(order(i)) < stopAt) {
      val v = order(i)
      val ns = adj(v)
      var j = 0
      while (j < ns.length) {
        val u = ns(j)
        if (peelEdge(alive, label, v, u) && deg(u) > deg(v)) {
          // swap u to the front of its degree block, then decrement its degree
          val front = bin(deg(u) + 1)
          val w = order(front)
          order(pos(u)) = w; pos(w) = pos(u)
          order(front) = u; pos(u) = front
          bin(deg(u) + 1) += 1
          deg(u) -= 1
        }
        j += 1
      }
      i += 1
    }
    deg
  }

  /** Edge v-u counts in a peel: u is alive and, given `label`, of v's label. */
  private def peelEdge(alive: Array[Boolean], label: Array[Int], v: Int, u: Int): Boolean =
    (alive == null || alive(u)) && (label == null || label(u) == label(v))

  /** Degree of `v` at the start of a peel; -1 if `v` is dead. */
  private def peelDegree(alive: Array[Boolean], label: Array[Int], v: Int): Int =
    if (alive != null && !alive(v)) -1
    else {
      val ns = adj(v)
      var d = 0
      var j = 0
      while (j < ns.length) { if (peelEdge(alive, label, v, ns(j))) d += 1; j += 1 }
      d
    }

  /** Mask of the maximal subgraph where every vertex has degree >= k: the
    * alive vertices of coreness >= k, by a peel that stops at degree k.
    */
  def kCoreMask(k: Int, alive: Array[Boolean] = null): Array[Boolean] = {
    val deg = peel(alive, sameLabel = false, stopAt = k)
    val keep = new Array[Boolean](n)
    var v = 0
    while (v < n) { keep(v) = deg(v) >= 0 && deg(v) >= k; v += 1 }
    keep
  }

  /** Exact diameter over `alive` vertices: max finite pairwise shortest path.
    * O(n * (n + m)); only for candidate-community-sized graphs.
    */
  def diameter(alive: Array[Boolean] = null): Int = {
    var best = 0
    var v = 0
    while (v < n) {
      if (alive == null || alive(v)) {
        val d = bfs(Seq(v), alive)
        var u = 0
        while (u < n) {
          if (d(u) != LocalGraph.Inf && d(u) > best) best = d(u)
          u += 1
        }
      }
      v += 1
    }
    best
  }

  /** Per-vertex butterfly degree over the bipartite graph induced by cross
    * edges between `left` and `right` masks (paper Algorithm 3). A vertex in
    * both masks is on the left; vertices in neither (or dead) get 0.
    *
    * Vertex-priority counting (Wang et al., "Vertex Priority Based Butterfly
    * Counting for Large-scale Bipartite Networks", PVLDB 12(10), 2019): each
    * butterfly is counted once, from its highest-ranked vertex `u` by (cross
    * degree, index), over wedges u-mid-w with mid and w ranked below `u`. With
    * `c` wedges ending at `w`, `u` and `w` share C(c,2) butterflies and each
    * wedge's middle vertex is in c-1 of them.
    */
  def butterflyDegrees(
      left: Array[Boolean],
      right: Array[Boolean],
      alive: Array[Boolean] = null): Array[Long] = {
    def side(v: Int): Int = // 0 left, 1 right, -1 inactive
      if (alive != null && !alive(v)) -1 else if (left(v)) 0 else if (right(v)) 1 else -1
    // active vertices in index order; rank(v) holds v's cross degree until a
    // counting sort on (cross degree, index) replaces it with v's rank
    val rank = new Array[Int](n)
    var verts = new Array[Int](16)
    var m = 0
    var maxDeg = 0
    var v = 0
    while (v < n) {
      val sv = side(v)
      if (sv >= 0) {
        val ns = adj(v)
        var j = 0
        while (j < ns.length) { if (side(ns(j)) == 1 - sv) rank(v) += 1; j += 1 }
        maxDeg = math.max(maxDeg, rank(v))
        if (m == verts.length) verts = java.util.Arrays.copyOf(verts, 2 * m)
        verts(m) = v
        m += 1
      }
      v += 1
    }
    val start = new Array[Int](maxDeg + 2)
    var i = 0
    while (i < m) { start(rank(verts(i)) + 1) += 1; i += 1 }
    i = 1
    while (i <= maxDeg) { start(i) += start(i - 1); i += 1 }
    val byRank = new Array[Int](m)
    val off = new Array[Int](m + 1) // CSR row offsets by rank
    i = 0
    while (i < m) {
      val x = verts(i)
      val d = rank(x)
      rank(x) = start(d); start(d) += 1; byRank(rank(x)) = x; off(rank(x) + 1) = d
      i += 1
    }
    i = 0
    while (i < m) { off(i + 1) += off(i); i += 1 }
    // cross-edge CSR in rank space; filling rows in ascending rank order
    // leaves every neighbour list sorted
    val fill = java.util.Arrays.copyOf(off, m)
    val nbr = new Array[Int](off(m))
    i = 0
    while (i < m) {
      val x = byRank(i)
      val ns = adj(x)
      var j = 0
      while (j < ns.length) {
        if (side(ns(j)) == 1 - side(x)) { val r = rank(ns(j)); nbr(fill(r)) = i; fill(r) += 1 }
        j += 1
      }
      i += 1
    }
    val count = new Array[Int](m)
    val touched = new Array[Int](m)
    val chiR = new Array[Long](m)
    var u = 0
    while (u < m) {
      var nt = 0
      var a = off(u)
      while (a < off(u + 1) && nbr(a) < u) { // wedges u-mid-w, mid and w below u
        val mid = nbr(a)
        var b = off(mid)
        while (b < off(mid + 1) && nbr(b) < u) {
          val w = nbr(b)
          if (count(w) == 0) { touched(nt) = w; nt += 1 }
          count(w) += 1
          b += 1
        }
        a += 1
      }
      a = off(u)
      while (nt > 0 && a < off(u + 1) && nbr(a) < u) { // credit the middles
        val mid = nbr(a)
        var b = off(mid)
        while (b < off(mid + 1) && nbr(b) < u) { chiR(mid) += count(nbr(b)) - 1; b += 1 }
        a += 1
      }
      while (nt > 0) { // credit the ends, resetting the counter
        nt -= 1
        val w = touched(nt)
        val pairs = count(w).toLong * (count(w) - 1) / 2
        chiR(u) += pairs; chiR(w) += pairs
        count(w) = 0
      }
      u += 1
    }
    val chi = new Array[Long](n)
    i = 0
    while (i < m) { chi(byRank(i)) = chiR(i); i += 1 }
    chi
  }

  /** Butterflies through `p` lost when `v` is deleted, over the cross-edge
    * graph of [[butterflyDegrees]] (paper Algorithm 7); 0 unless `p` and `v`
    * are distinct active vertices. Call it while `v` is still alive. Same
    * side: C(alpha,2), alpha = their common cross neighbours. Cross side (v
    * adjacent to p): each other cross neighbour u of v closes |N(u) ∩ N(p)| - 1.
    * Sorted adjacency arrays are merged with the cross test inline.
    */
  def butterfliesLost(
      left: Array[Boolean],
      right: Array[Boolean],
      alive: Array[Boolean],
      p: Int,
      v: Int): Long = {
    def side(x: Int): Int =
      if (alive != null && !alive(x)) -1 else if (left(x)) 0 else if (right(x)) 1 else -1
    // |{x in adj(a) ∩ adj(b) : side(x) == s}|
    def common(a: Int, b: Int, s: Int): Int = {
      val na = adj(a); val nb = adj(b)
      var i = 0; var j = 0; var c = 0
      while (i < na.length && j < nb.length) {
        val x = na(i); val y = nb(j)
        if (x == y) { if (side(x) == s) c += 1; i += 1; j += 1 }
        else if (x < y) i += 1
        else j += 1
      }
      c
    }
    val sp = side(p)
    val sv = side(v)
    if (p == v || sp < 0 || sv < 0) 0L
    else if (sp == sv) {
      val alpha = common(p, v, 1 - sp).toLong
      alpha * (alpha - 1) / 2
    } else if (hasEdge(p, v)) {
      var beta = 0L
      val ns = adj(v)
      var j = 0
      while (j < ns.length) {
        val u = ns(j)
        if (u != p && side(u) == sp) beta += common(u, p, sv) - 1
        j += 1
      }
      beta
    } else 0L
  }

  /** Trussness of every edge: the largest k such that the edge is in the
    * k-truss (every edge in >= k-2 triangles), by [[TrussPeel]]; only the
    * returned map outlives the call.
    */
  def trussness(): Map[(Int, Int), Int] = {
    val t = new TrussPeel(adj)
    // filled through a mutable HashMap, so the result iterates in an order
    // set by the keys' hashes, not by the peel
    val out = mutable.Map[(Int, Int), Int]()
    var e = 0
    while (e < t.m) { out((t.lo(e), t.hi(e))) = t.sup(e) + 2; e += 1 }
    out.toMap
  }

  /** The edge-indexed truss decomposition ([[TrussIndex]]), computed on
    * first use and shared by every caller, who must not modify it.
    */
  def trussIndex: TrussIndex = trussIdx

  private lazy val trussIdx: TrussIndex = {
    val t = new TrussPeel(adj)
    val truss = t.sup // the peel leaves trussness - 2 here
    var e = 0
    while (e < t.m) { truss(e) += 2; e += 1 }
    new TrussIndex(adj, t.off, t.eid, t.lo, t.hi, truss)
  }
}

/** Truss decomposition on `Int` arrays (Wang & Cheng, "Truss Decomposition
  * in Massive Networks", PVLDB 5(9), 2012) of sorted, deduplicated adjacency
  * arrays. Edges get ids `0 until m` in (lo, hi) order, lo < hi; slot
  * `off(u) + j` of the adjacency arrays stands for the edge u-adj(u)(j).
  * Supports come from one triangle listing and are peeled in increasing
  * order from degree-style bins; on return `sup(e)` is edge e's trussness
  * - 2. The per-vertex and per-edge steps are small methods, which the JIT
  * compiles once and quickly.
  */
private[graph] final class TrussPeel(adj: Array[Array[Int]]) {
  private val n = adj.length
  val off = new Array[Int](n + 1)
  locally { var u = 0; while (u < n) { off(u + 1) = off(u) + adj(u).length; u += 1 } }
  val m: Int = off(n) / 2
  val eid = new Array[Int](off(n))
  val lo = new Array[Int](m)
  val hi = new Array[Int](m)
  val sup = new Array[Int](m)

  locally {
    // a vertex's lower neighbours come first in its sorted list, in the
    // order this loop meets them
    val fill = java.util.Arrays.copyOf(off, n) // next slot of each vertex's lower neighbours
    var e = 0
    var u = 0
    while (u < n) { e = numberFrom(u, e, fill); u += 1 }
    val mark = new Array[Int](n)
    u = 0
    while (u < n) { TrussPeel.countTriangles(adj, off, eid, sup, mark, u); u += 1 }
  }

  // bins: bin(s) is the start of the support-s block of `order`
  private val maxSup = { var x = 0; var e = 0; while (e < m) { x = math.max(x, sup(e)); e += 1 }; x }
  private val bin = new Array[Int](maxSup + 2)
  private val order = new Array[Int](m)
  private val pos = new Array[Int](m)
  private val gone = new Array[Boolean](m)

  locally {
    var e = 0
    while (e < m) { bin(sup(e) + 1) += 1; e += 1 }
    var s = 1
    while (s <= maxSup + 1) { bin(s) += bin(s - 1); s += 1 }
    val place = java.util.Arrays.copyOf(bin, maxSup + 1)
    e = 0
    while (e < m) { pos(e) = place(sup(e)); order(pos(e)) = e; place(sup(e)) += 1; e += 1 }
    var i = 0
    while (i < m) { peel(order(i)); i += 1 }
  }

  /** Number u's edges to higher neighbours from `e`; returns the next id. */
  private def numberFrom(u: Int, first: Int, fill: Array[Int]): Int = {
    val ns = adj(u)
    var e = first
    var j = 0
    while (j < ns.length) {
      val v = ns(j)
      if (v > u) { eid(off(u) + j) = e; eid(fill(v)) = e; fill(v) += 1; lo(e) = u; hi(e) = v; e += 1 }
      j += 1
    }
    e
  }

  /** Remove edge f at its current support: each triangle through f whose
    * other two edges are still there costs them one support.
    */
  private def peel(f: Int): Unit = {
    gone(f) = true
    val a = lo(f); val b = hi(f)
    val na = adj(a); val nb = adj(b)
    var p = 0; var q = 0
    while (p < na.length && q < nb.length) {
      if (na(p) == nb(q)) {
        val ea = eid(off(a) + p); val eb = eid(off(b) + q)
        if (!gone(ea) && !gone(eb)) { lose(ea, sup(f)); lose(eb, sup(f)) }
        p += 1; q += 1
      } else if (na(p) < nb(q)) p += 1
      else q += 1
    }
  }

  /** One lost triangle for edge f while edges of support `level` are
    * peeled: a support above the level moves to the front of its bin and
    * drops by one; it never drops below the level.
    */
  private def lose(f: Int, level: Int): Unit =
    if (sup(f) > level) {
      val front = bin(sup(f))
      val x = order(front)
      order(pos(f)) = x; pos(x) = pos(f)
      order(front) = f; pos(f) = front
      bin(sup(f)) += 1
      sup(f) -= 1
    }
}

private[graph] object TrussPeel {

  /** Credit once every triangle u < v < w (u given) whose three edges e
    * have sup(e) >= 0; edges below 0 are left out and stay there. `mark`
    * (one entry per vertex) is all zeros on entry and on return.
    */
  def countTriangles(
      adj: Array[Array[Int]],
      off: Array[Int],
      eid: Array[Int],
      sup: Array[Int],
      mark: Array[Int],
      u: Int): Unit = {
    val ns = adj(u)
    var j = 0 // mark(w) = 1 + the slot of u-w
    while (j < ns.length) { if (sup(eid(off(u) + j)) >= 0) mark(ns(j)) = off(u) + j + 1; j += 1 }
    j = 0
    while (j < ns.length) {
      val uv = eid(off(u) + j)
      if (ns(j) > u && sup(uv) >= 0) countFrom(adj, off, eid, sup, mark, ns(j), uv)
      j += 1
    }
    j = 0
    while (j < ns.length) { mark(ns(j)) = 0; j += 1 }
  }

  /** The triangles u-v-w with w > v marked, for the edge u-v `uv`. */
  private def countFrom(
      adj: Array[Array[Int]],
      off: Array[Int],
      eid: Array[Int],
      sup: Array[Int],
      mark: Array[Int],
      v: Int,
      uv: Int): Unit = {
    val nv = adj(v)
    var i = 0
    while (i < nv.length) {
      val w = nv(i)
      if (w > v && mark(w) > 0) {
        val vw = eid(off(v) + i)
        if (sup(vw) >= 0) { sup(uv) += 1; sup(vw) += 1; sup(eid(mark(w) - 1)) += 1 }
      }
      i += 1
    }
  }
}

/** A graph's truss decomposition by edge id, as [[TrussPeel]] numbers the
  * edges: slot `off(u) + j` of the adjacency arrays stands for the edge
  * u-adj(u)(j), whose id is `eid(off(u) + j)`; edge e joins `lo(e) < hi(e)`
  * and has trussness `truss(e)`. Shared by every caller, who must not modify
  * it or the arrays it returns.
  */
final class TrussIndex private[graph] (
    adj: Array[Array[Int]],
    val off: Array[Int],
    val eid: Array[Int],
    val lo: Array[Int],
    val hi: Array[Int],
    val truss: Array[Int]) {

  /** Number of edges. */
  val m: Int = lo.length

  private val n = adj.length
  private val supports = {
    var maxTruss = 2
    var e = 0
    while (e < m) { maxTruss = math.max(maxTruss, truss(e)); e += 1 }
    new java.util.concurrent.atomic.AtomicReferenceArray[Array[Int]](maxTruss + 1)
  }

  /** Support of every edge within the maximal k-truss (the edges of
    * trussness >= k), -1 for the other edges; k from 2 to the largest
    * trussness. Counted on first use per k by one triangle listing over
    * those edges, then shared.
    */
  def supportIn(k: Int): Array[Int] = {
    var s = supports.get(k)
    if (s == null) { s = countSupport(k); supports.set(k, s) }
    s
  }

  private def countSupport(k: Int): Array[Int] = {
    val sup = new Array[Int](m)
    var e = 0
    while (e < m) { if (truss(e) < k) sup(e) = -1; e += 1 }
    val mark = new Array[Int](n)
    var u = 0
    while (u < n) { TrussPeel.countTriangles(adj, off, eid, sup, mark, u); u += 1 }
    sup
  }
}

object LocalGraph {
  /** Distance value for unreachable vertices. */
  val Inf: Int = Int.MaxValue

  /** Build from external-id vertices and an undirected edge list.
    * Self-loops are dropped; parallel edges are deduplicated; edges to
    * unknown vertices are an error.
    */
  def apply(vertices: Seq[(Long, String)], rawEdges: Seq[(Long, Long)]): LocalGraph = {
    val ids = vertices.map(_._1).toArray
    require(ids.distinct.length == ids.length, "duplicate vertex ids")
    val labels = vertices.map(_._2).toArray
    val idx = ids.zipWithIndex.toMap
    val adjSets = Array.fill(ids.length)(mutable.SortedSet[Int]())
    for ((a, b) <- rawEdges if a != b) {
      val u = idx.getOrElse(a, sys.error(s"edge endpoint $a not a vertex"))
      val v = idx.getOrElse(b, sys.error(s"edge endpoint $b not a vertex"))
      adjSets(u) += v
      adjSets(v) += u
    }
    new LocalGraph(ids, labels, adjSets.map(_.toArray))
  }
}
