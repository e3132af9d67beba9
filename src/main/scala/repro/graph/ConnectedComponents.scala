package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Distributed connected components via iterative min-id propagation.
  *
  * Each round every vertex takes the minimum component id among itself and
  * its neighbors (one join + aggregation); converges in O(diameter) rounds,
  * which is small for the community-structured graphs this repo evaluates.
  * It throws `IllegalStateException` if no fixpoint is reached within its
  * round cap, rather than return a partial labelling.
  */
object ConnectedComponents {

  private val MaxRounds = 10000

  /** `(id, comp)` where `comp` is the minimum vertex id in the component. */
  def run(g: LabeledGraph): DataFrame = {
    var cur = g.vertices.select(col("id"), col("id").as("comp")).localCheckpoint(true)
    val sym = g.symEdges.localCheckpoint(true)
    var changed = true
    var rounds = 0
    while (changed) {
      if (rounds == MaxRounds)
        throw new IllegalStateException(s"ConnectedComponents.run: no fixpoint within $MaxRounds rounds")
      rounds += 1
      val nbrMin = sym
        .join(cur.select(col("id").as("dst"), col("comp").as("nc")), Seq("dst"))
        .groupBy(col("src").as("id"))
        .agg(min(col("nc")).as("nmin"))
      val next = cur
        .join(nbrMin, Seq("id"), "left")
        .select(col("id"), least(col("comp"), coalesce(col("nmin"), col("comp"))).as("comp"))
        .localCheckpoint(true)
      changed = next
        .join(cur.select(col("id"), col("comp").as("old")), Seq("id"))
        .filter(col("comp") =!= col("old"))
        .limit(1)
        .count() > 0
      cur = next
    }
    cur
  }

  /** Ids of the component containing `seed` (as a one-column `id` frame). */
  def componentOf(g: LabeledGraph, seed: Long): DataFrame = {
    val comps = run(g)
    val seedComp = comps.filter(col("id") === seed).select(col("comp").as("sc"))
    comps.join(seedComp, col("comp") === col("sc")).select("id")
  }
}
