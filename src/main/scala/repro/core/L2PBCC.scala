package repro.core

import repro.eval.Instrument
import repro.graph.LocalGraph

/** Algorithm 8: index-based local exploration (the paper's L2P-BCC).
  *
  * Instead of peeling the whole graph, it (1) extracts a shortest path
  * between the queries under the butterfly-core path weight (Def. 6), (2)
  * expands the path into a small candidate `G_t` by BFS over vertices whose
  * indexed coreness is at least the path minimum on each side, capped at
  * `eta` vertices, and (3) runs the LP-BCC refinement (Algorithms 5-7 +
  * bulk deletion) inside `G_t`. No 2-approximation guarantee, but fast and
  * high quality in practice (paper Exp-1/2).
  */
object L2PBCC {

  /** Default candidate-size cap (paper's empirically tuned eta). */
  val DefaultEta = 1000

  /** Dijkstra under an additive surrogate of the butterfly-core path weight:
    * stepping onto vertex v costs
    * `1 + gamma1 * (deltaMax - delta(v)) / deltaMax + gamma2 * (chiMax - chi(v)) / chiMax`,
    * so short paths through high-coreness / high-butterfly vertices win —
    * the stated intent of Def. 6 (the paper's path weight penalizes the
    * path-minimum shortfall; an additive per-vertex shortfall is the
    * standard shortest-path-computable surrogate).
    */
  private[core] def weightedPath(
      g: LocalGraph,
      src: Int,
      dst: Int,
      delta: Array[Int],
      maxDelta: Int,
      chi: Array[Long],
      maxChi: Long,
      gamma1: Double,
      gamma2: Double): Option[List[Int]] = {
    val deltaMax = math.max(1, maxDelta)
    val chiMax = math.max(1L, maxChi).toDouble
    def cost(v: Int): Double =
      1.0 + gamma1 * (deltaMax - delta(v)).toDouble / deltaMax +
        gamma2 * (chiMax - chi(v)) / chiMax
    val dist = new Array[Double](g.n)
    java.util.Arrays.fill(dist, Double.PositiveInfinity)
    val prev = new Array[Int](g.n)
    val heap = new Heap
    dist(src) = 0.0
    heap.push(0.0, src)
    // costs are positive, so once dst is settled its prev chain is final
    var settled = false
    while (!settled && heap.size > 0) {
      val d = heap.minKey
      val u = heap.minVertex
      heap.pop()
      if (d <= dist(u)) {
        if (u == dst) settled = true
        else {
          val ns = g.neighbors(u)
          var j = 0
          while (j < ns.length) {
            val w = ns(j)
            val nd = d + cost(w)
            if (nd < dist(w)) { dist(w) = nd; prev(w) = u; heap.push(nd, w) }
            j += 1
          }
        }
      }
    }
    if (dist(dst).isInfinity) None
    else {
      var path = List(dst)
      while (path.head != src) path = prev(path.head) :: path
      Some(path)
    }
  }

  /** Binary min-heap of (key, vertex) on primitive arrays, 1-based. It
    * sifts exactly as `mutable.PriorityQueue` does, with strict key
    * comparisons only, so entries with equal keys leave in the same order.
    */
  private final class Heap {
    private var keys = new Array[Double](16)
    private var verts = new Array[Int](16)
    var size = 0

    def minKey: Double = keys(1)
    def minVertex: Int = verts(1)

    private def swap(a: Int, b: Int): Unit = {
      val k = keys(a); keys(a) = keys(b); keys(b) = k
      val v = verts(a); verts(a) = verts(b); verts(b) = v
    }

    def push(key: Double, v: Int): Unit = {
      size += 1
      if (size == keys.length) {
        keys = java.util.Arrays.copyOf(keys, 2 * size)
        verts = java.util.Arrays.copyOf(verts, 2 * size)
      }
      keys(size) = key
      verts(size) = v
      var k = size
      while (k > 1 && keys(k / 2) > keys(k)) { swap(k, k / 2); k /= 2 }
    }

    /** Remove the minimum. */
    def pop(): Unit = {
      keys(1) = keys(size)
      verts(1) = verts(size)
      size -= 1
      var k = 1
      var sifting = true
      while (sifting && size >= 2 * k) {
        var j = 2 * k
        if (j < size && keys(j) > keys(j + 1)) j += 1
        if (keys(k) <= keys(j)) sifting = false
        else { swap(k, j); k = j }
      }
    }
  }

  /** Expand the path into a candidate of at most ~eta vertices: BFS adding
    * adjacent same-pair-label vertices with indexed coreness >= the path
    * minimum of their side. Returns the candidate's vertices, ascending.
    */
  private[core] def expand(
      g: LocalGraph,
      path: List[Int],
      lLab: String,
      rLab: String,
      index: BCIndex,
      eta: Int): Array[Int] = {
    val kl = path.filter(v => g.labels(v) == lLab).map(index.coreness).minOption.getOrElse(0)
    val kr = path.filter(v => g.labels(v) == rLab).map(index.coreness).minOption.getOrElse(0)
    def admissible(v: Int): Boolean =
      (g.labels(v) == lLab && index.coreness(v) >= kl) ||
        (g.labels(v) == rLab && index.coreness(v) >= kr)
    val in = new Array[Boolean](g.n)
    var queue = new Array[Int](16) // every vertex taken, in BFS order
    var head = 0
    var tail = 0
    def add(v: Int): Unit = {
      in(v) = true
      if (tail == queue.length) queue = java.util.Arrays.copyOf(queue, 2 * tail)
      queue(tail) = v
      tail += 1
    }
    for (v <- path if !in(v)) add(v)
    while (head < tail && tail <= eta) {
      val ns = g.neighbors(queue(head))
      head += 1
      var j = 0
      while (j < ns.length) {
        val w = ns(j)
        if (!in(w) && admissible(w)) add(w)
        j += 1
      }
    }
    val verts = java.util.Arrays.copyOf(queue, tail)
    java.util.Arrays.sort(verts)
    verts
  }

  /** Full L2P-BCC search. `index` may be shared across queries (that is the
    * point of the offline index); gamma1/gamma2 default to the paper's 0.5.
    */
  def run(
      g: LocalGraph,
      qlId: Long,
      qrId: Long,
      params: BCCParams,
      index: BCIndex,
      inst: Instrument = new Instrument,
      eta: Int = DefaultEta,
      gamma1: Double = 0.5,
      gamma2: Double = 0.5,
      computeDiameter: Boolean = true): Option[BCCResult] = inst.timeTotal {
    val ql = g.indexOf.getOrElse(qlId, return None)
    val qr = g.indexOf.getOrElse(qrId, return None)
    if (g.labels(ql) == g.labels(qr)) return None
    val lLab = g.labels(ql)
    val rLab = g.labels(qr)
    val chi = index.butterflyDegrees(lLab, rLab)

    val path = weightedPath(g, ql, qr, index.coreness, index.maxCoreness, chi,
      index.maxButterflyDegree(lLab, rLab), gamma1, gamma2)
      .getOrElse(return None)

    // grow eta if the capped candidate cannot support the parameters
    var curEta = eta
    var result: Option[BCCResult] = None
    var attempts = 0
    while (result.isEmpty && attempts < 3) {
      attempts += 1
      val cand = g.inducedOn(expand(g, path, lLab, rLab, index, curEta))
      result = Refine.search(cand, qlId, qrId, params, Refine.FastLP, inst, computeDiameter)
      curEta *= 4
    }
    // last resort: whole-graph LP-BCC (keeps quality comparable when the
    // local neighborhood cannot support the requested cores); not through
    // LPBCC.run, whose own timer would count this call's time twice
    result.orElse(Refine.search(g, qlId, qrId, params, Refine.FastLP, inst, computeDiameter))
  }
}
