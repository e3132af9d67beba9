package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Distributed k-core computation as iterative DataFrame dataflow.
  *
  * `kCoreVertices` peels vertices of degree < k until fixpoint (the classic
  * cascade, one join round per cascade level). `coreness` runs the iterated
  * h-index algorithm (Lu et al.): initialize c(v) = deg(v) and repeatedly set
  * c(v) = H-index of its neighbors' values; the fixpoint is exactly the
  * coreness. Both truncate lineage with `localCheckpoint` each round, and
  * both throw `IllegalStateException` if no fixpoint is reached within their
  * round cap, rather than return a partial result.
  */
object KCore {

  private val PeelRounds = 10000
  private val CorenessRounds = 1000

  /** Vertex ids (`id` column) of the maximal subgraph with min degree >= k. */
  def kCoreVertices(g: LabeledGraph, k: Int): DataFrame = {
    if (k <= 0) return g.vertices.select("id")
    var cur = g.symEdges.localCheckpoint(true)
    var done = false
    var rounds = 0
    while (!done) {
      if (rounds == PeelRounds)
        throw new IllegalStateException(s"KCore.kCoreVertices: no fixpoint within $PeelRounds rounds")
      rounds += 1
      val deg = cur.groupBy(col("src").as("id")).agg(count("*").as("deg"))
      val bad = deg.filter(col("deg") < k).select("id").localCheckpoint(true)
      if (bad.isEmpty) done = true
      else {
        cur = cur
          .join(bad.select(col("id").as("src")), Seq("src"), "left_anti")
          .join(bad.select(col("id").as("dst")), Seq("dst"), "left_anti")
          .select("src", "dst")
          .localCheckpoint(true)
        if (cur.isEmpty) done = true
      }
    }
    cur.select(col("src").as("id")).distinct()
  }

  /** Per-vertex coreness `(id, coreness)` via iterated neighbor h-index. */
  def coreness(g: LabeledGraph): DataFrame = {
    val hIndex = udf { (xs: Seq[Long]) =>
      val sorted = xs.sortBy(-_)
      var h = 0
      while (h < sorted.length && sorted(h) >= h + 1) h += 1
      h.toLong
    }
    var cur = g.degrees.select(col("id"), col("deg").as("c")).localCheckpoint(true)
    val sym = g.symEdges.localCheckpoint(true)
    var changed = true
    var rounds = 0
    while (changed) {
      if (rounds == CorenessRounds)
        throw new IllegalStateException(s"KCore.coreness: no fixpoint within $CorenessRounds rounds")
      rounds += 1
      val nbrVals = sym
        .join(cur.select(col("id").as("dst"), col("c").as("nc")), Seq("dst"))
        .groupBy(col("src").as("id"))
        .agg(collect_list(col("nc")).as("ncs"))
        .select(col("id"), hIndex(col("ncs")).as("h"))
      val next = cur
        .join(nbrVals, Seq("id"), "left")
        .select(col("id"), least(col("c"), coalesce(col("h"), lit(0L))).as("c"))
        .localCheckpoint(true)
      changed = next
        .join(cur.select(col("id"), col("c").as("old")), Seq("id"))
        .filter(col("c") =!= col("old"))
        .limit(1)
        .count() > 0
      cur = next
    }
    cur.select(col("id"), col("c").cast("int").as("coreness"))
  }
}
