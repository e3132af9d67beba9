package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Distributed k-truss edge support.
  *
  * Edge support (#triangles through each edge) is computed by the classic
  * wedge join: canonical edges joined with themselves to enumerate wedges,
  * closed by a third join against the edge set. The truss decomposition used
  * by the CTC baseline is local ([[LocalGraph.trussIndex]]).
  */
object Truss {

  /** `(src, dst, support)` for every canonical edge of `g`. */
  def edgeSupport(edges: DataFrame): DataFrame = {
    val e = edges.select(col("src"), col("dst"))
    // wedges centered at u: (u, v), (u, w) with v < w, over symmetric view
    val sym = e.union(e.select(col("dst").as("src"), col("src").as("dst")))
    val wedge = sym
      .select(col("src").as("u"), col("dst").as("v"))
      .join(sym.select(col("src").as("u"), col("dst").as("w")), Seq("u"))
      .filter(col("v") < col("w"))
    val triangles = wedge
      .join(e.select(col("src").as("v"), col("dst").as("w")), Seq("v", "w"))
    // each triangle (u, v, w) closes edge (v, w) once per common neighbor u
    val closing = triangles
      .groupBy(col("v").as("src"), col("w").as("dst"))
      .agg(count("*").as("support"))
    e.join(closing, Seq("src", "dst"), "left")
      .select(col("src"), col("dst"), coalesce(col("support"), lit(0L)).as("support"))
  }
}
