package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Distributed per-vertex butterfly counting over a bipartite edge set.
  *
  * Input: `(l, r)` cross edges (left-label endpoint first). For each vertex
  * v, the butterfly degree is chi(v) = sum over same-side w != v of
  * C(common(v, w), 2), where common counts shared opposite-side neighbors.
  * The paper's Algorithm 3 materializes 2-hop path counts in a hashmap; the
  * dataflow equivalent is a wedge self-join grouped by the same-side pair,
  * then a C(c, 2) aggregation — one shuffle per side.
  */
object ButterflyCount {

  /** `(id, chi)` for every vertex appearing in `crossEdges(l, r)`. */
  def perVertex(crossEdges: DataFrame): DataFrame = {
    val e = crossEdges.select(col("l"), col("r")).dropDuplicates("l", "r")

    def side(v: String, other: String): DataFrame = {
      // pairs (v1, v2) on side `v` sharing an `other`-side neighbor
      val e1 = e.select(col(v).as("v1"), col(other).as("o"))
      val e2 = e.select(col(v).as("v2"), col(other).as("o"))
      e1.join(e2, Seq("o"))
        .filter(col("v1") =!= col("v2"))
        .groupBy(col("v1"), col("v2"))
        .agg(count("*").as("c"))
        .groupBy(col("v1").as("id"))
        .agg(sum(col("c") * (col("c") - 1) / 2).as("chi"))
    }

    val vertices = e.select(col("l").as("id")).union(e.select(col("r").as("id"))).distinct()
    val counted = side("l", "r").union(side("r", "l"))
    vertices
      .join(counted, Seq("id"), "left")
      .select(col("id"), coalesce(col("chi"), lit(0L)).cast("long").as("chi"))
  }
}
