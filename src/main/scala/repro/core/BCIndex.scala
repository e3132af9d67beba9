package repro.core

import scala.collection.mutable
import repro.graph.LocalGraph

/** The offline butterfly-core index (paper §6.3): per-vertex coreness within
  * its own label-induced subgraph plus per-label-pair butterfly degrees over
  * the corresponding bipartite cross-edge graph.
  *
  * Coreness is the graph's own [[LocalGraph.labelCoreness]] array (one peel
  * over intra-label edges, shared with Algorithm 2 and the parameter
  * defaults); butterfly degrees are computed per label pair on first use,
  * from the graph's per-label vertex lists so the work follows the two
  * labels, and cached with their maximum (real networks can have hundreds of
  * labels, so the full pair matrix is built lazily).
  */
final class BCIndex(val g: LocalGraph) {

  /** Coreness of every vertex within its label-induced subgraph. */
  val coreness: Array[Int] = g.labelCoreness()

  /** Largest label coreness (0 on an empty graph). */
  val maxCoreness: Int = {
    var best = 0
    var v = 0
    while (v < coreness.length) { best = math.max(best, coreness(v)); v += 1 }
    best
  }

  private final class Pair(val chi: Array[Long], val max: Long)

  private val pairCache = mutable.Map[(String, String), Pair]()

  /** Counted on the subgraph induced by the two labels' vertices, which
    * holds every cross edge between them, and scattered back to `g`'s
    * indices. A label paired with itself has no cross edges: all zeros.
    */
  private def pair(labA: String, labB: String): Pair = {
    val key = if (labA <= labB) (labA, labB) else (labB, labA)
    pairCache.getOrElseUpdate(key, {
      val chi = new Array[Long](g.n)
      var max = 0L
      if (key._1 != key._2) {
        val verts = g.labelVertices(key._1) ++ g.labelVertices(key._2)
        java.util.Arrays.sort(verts)
        val sub = g.inducedOn(verts)
        val left = sub.labels.map(_ == key._1)
        val subChi = sub.butterflyDegrees(left, left.map(!_))
        var i = 0
        while (i < verts.length) { chi(verts(i)) = subChi(i); i += 1 }
        max = BCCEngine.maxOn(subChi, null)
      }
      new Pair(chi, max)
    })
  }

  /** Butterfly degree of every vertex over the bipartite graph between the
    * two labels (0 for vertices of other labels). Cached per pair.
    */
  def butterflyDegrees(labA: String, labB: String): Array[Long] = pair(labA, labB).chi

  /** Largest butterfly degree between the two labels (0 when there is none). */
  def maxButterflyDegree(labA: String, labB: String): Long = pair(labA, labB).max
}

object BCIndex {

  def build(g: LocalGraph): BCIndex = new BCIndex(g)
}
