package repro.core

import scala.collection.mutable
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.graph.{ButterflyCount, KCore, LabeledGraph, LocalGraph}

/** The offline butterfly-core index (paper §6.3): per-vertex coreness within
  * its own label-induced subgraph plus per-label-pair butterfly degrees over
  * the corresponding bipartite cross-edge graph.
  *
  * Coreness is computed eagerly, in one peel over intra-label edges;
  * butterfly degrees are computed per label pair on first use and cached
  * (real networks can have hundreds of labels, so the full pair matrix is
  * built lazily).
  */
final class BCIndex(val g: LocalGraph) {

  /** Coreness of every vertex within its label-induced subgraph. */
  val coreness: Array[Int] = g.labelCoreness()

  private val chiCache = mutable.Map[(String, String), Array[Long]]()

  /** Butterfly degree of every vertex over the bipartite graph between the
    * two labels (0 for vertices of other labels). Cached per pair.
    */
  def butterflyDegrees(labA: String, labB: String): Array[Long] = {
    val key = if (labA <= labB) (labA, labB) else (labB, labA)
    chiCache.getOrElseUpdate(key,
      g.butterflyDegrees(g.labels.map(_ == key._1), g.labels.map(_ == key._2)))
  }
}

object BCIndex {

  def build(g: LocalGraph): BCIndex = new BCIndex(g)

  /** Distributed index construction: per-label coreness `(id, coreness)` via
    * the iterated h-index dataflow, one label subgraph at a time.
    */
  def corenessSpark(g: LabeledGraph): DataFrame = {
    val labels = g.vertices.select("label").distinct().collect().map(_.getString(0))
    labels
      .map(lab => KCore.coreness(g.labelSubgraph(lab)))
      .reduce(_ union _)
  }

  /** Distributed per-pair butterfly degrees `(id, chi)`. */
  def butterflySpark(g: LabeledGraph, labA: String, labB: String): DataFrame =
    ButterflyCount.perVertex(g.crossEdges(labA, labB))
}
