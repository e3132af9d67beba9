package repro.graph

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.data.GraphGen

/** The distributed DataFrame graph ops must agree with (a) the DuckDB SQL
  * oracle for everything SQL-expressible and (b) the LocalGraph reference
  * implementations for the iterative algorithms.
  */
class DistributedGraphSpec extends SparkSpec {

  private def toSpark(g: LocalGraph): LabeledGraph = LabeledGraph.fromLocal(spark, g)

  test("canonicalization dedups, drops self loops, orients src < dst") {
    import spark.implicits._
    val vs = Seq((1L, "A"), (2L, "A"), (3L, "B")).toDF("id", "label")
    val es = Seq((2L, 1L), (1L, 2L), (1L, 1L), (3L, 2L), (9L, 1L)).toDF("src", "dst")
    val g = LabeledGraph(spark, vs, es)
    val edges = g.edges.collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(edges == Set((1L, 2L), (2L, 3L)))
  }

  test("degrees match the DuckDB oracle") {
    val lg = GraphGen.randomLabeled(60, 4.0, Seq("A", "B"), 1)
    val g = toSpark(lg)
    val sql =
      """SELECT v.id AS id, CAST(COALESCE(d.deg, 0) AS BIGINT) AS deg
        |FROM vertices v LEFT JOIN (
        |  SELECT src AS id, COUNT(*) AS deg FROM sym GROUP BY src
        |) d ON v.id = d.id""".stripMargin
    Oracle.assertEquivalent(
      g.degrees.select(col("id"), col("deg")),
      sql,
      "vertices" -> g.vertices,
      "sym" -> g.symEdges)
  }

  for (seed <- 1 to 3)
    test(s"butterfly counts match the DuckDB oracle, seed=$seed") {
      val lg = GraphGen.randomLabeled(40, 5.0, Seq("A", "B"), seed * 3)
      val g = toSpark(lg)
      val cross = g.crossEdges("A", "B")
      val sql =
        """WITH e AS (SELECT DISTINCT l, r FROM cross_edges),
          |wl AS (SELECT e1.l AS v1, COUNT(*) AS c FROM e e1 JOIN e e2
          |       ON e1.r = e2.r AND e1.l <> e2.l GROUP BY e1.l, e2.l),
          |wr AS (SELECT e1.r AS v1, COUNT(*) AS c FROM e e1 JOIN e e2
          |       ON e1.l = e2.l AND e1.r <> e2.r GROUP BY e1.r, e2.r),
          |chi AS (SELECT v1 AS id, SUM(c * (c - 1) // 2) AS chi FROM wl GROUP BY v1
          |        UNION ALL
          |        SELECT v1 AS id, SUM(c * (c - 1) // 2) AS chi FROM wr GROUP BY v1),
          |verts AS (SELECT l AS id FROM e UNION SELECT r AS id FROM e)
          |SELECT verts.id AS id, CAST(COALESCE(chi.chi, 0) AS BIGINT) AS chi
          |FROM verts LEFT JOIN chi ON verts.id = chi.id""".stripMargin
      Oracle.assertEquivalent(ButterflyCount.perVertex(cross), sql, "cross_edges" -> cross)
    }

  for (seed <- 1 to 3)
    test(s"distributed butterfly counts match LocalGraph, seed=$seed") {
      val lg = GraphGen.randomLabeled(50, 5.0, Seq("A", "B"), seed * 11)
      val g = toSpark(lg)
      val left = Array.tabulate(lg.n)(v => lg.labels(v) == "A")
      val right = left.map(!_)
      val expected = lg.butterflyDegrees(left, right)
      val got = ButterflyCount
        .perVertex(g.crossEdges("A", "B"))
        .collect()
        .map(r => r.getLong(0) -> r.getLong(1))
        .toMap
      for (v <- 0 until lg.n) {
        val chi = got.getOrElse(lg.ids(v), 0L)
        assert(chi == expected(v), s"vertex ${lg.ids(v)}")
      }
    }

  for ((k, seed) <- Seq((2, 1), (3, 2), (4, 3)))
    test(s"distributed k-core matches LocalGraph for k=$k") {
      val lg = GraphGen.randomLabeled(80, 5.0, Seq("X"), seed * 19)
      val g = toSpark(lg)
      val ids = KCore.kCoreVertices(g, k).collect().map(_.getLong(0)).toSet
      val mask = lg.kCoreMask(k)
      val expected = (0 until lg.n).filter(mask).map(lg.ids).toSet
      assert(ids == expected)
    }

  test("distributed k-core of a graph below the threshold is empty") {
    val lg = GraphGen.randomLabeled(30, 2.0, Seq("X"), 23)
    val g = toSpark(lg)
    assert(KCore.kCoreVertices(g, 10).isEmpty)
  }

  for (seed <- 1 to 3)
    test(s"distributed coreness matches Batagelj-Zaversnik, seed=$seed") {
      val lg = GraphGen.randomLabeled(60, 4.5, Seq("X"), seed * 29)
      val g = toSpark(lg)
      val got = KCore.coreness(g).collect().map(r => r.getLong(0) -> r.getInt(1)).toMap
      val expected = lg.coreness()
      for (v <- 0 until lg.n)
        assert(got(lg.ids(v)) == expected(v), s"vertex ${lg.ids(v)}")
    }

  for (seed <- 1 to 3)
    test(s"distributed connected components match LocalGraph, seed=$seed") {
      val lg = GraphGen.randomLabeled(70, 1.5, Seq("X"), seed * 37) // sparse => many comps
      val g = toSpark(lg)
      val got = ConnectedComponents.run(g).collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
      val comp = lg.components()
      // same partition: two vertices share a comp id iff the reference agrees
      for (u <- 0 until lg.n; v <- (u + 1) until lg.n)
        assert(
          (got(lg.ids(u)) == got(lg.ids(v))) == (comp(u) == comp(v)),
          s"pair (${lg.ids(u)}, ${lg.ids(v)})")
    }

  test("componentOf returns exactly the seed's component") {
    val lg = LocalGraph(
      (0L to 4L).map(i => (i, "X")),
      Seq((0L, 1L), (1L, 2L), (3L, 4L)))
    val g = toSpark(lg)
    val ids = ConnectedComponents.componentOf(g, 0L).collect().map(_.getLong(0)).toSet
    assert(ids == Set(0L, 1L, 2L))
  }

  test("labelSubgraph keeps only intra-label edges") {
    val lg = GraphGen.randomLabeled(40, 4.0, Seq("A", "B"), 47)
    val g = toSpark(lg)
    val sub = g.labelSubgraph("A")
    val vs = sub.vertices.collect().map(_.getLong(0)).toSet
    assert(vs == (0 until lg.n).filter(lg.labels(_) == "A").map(lg.ids).toSet)
    val localSub = sub.toLocal
    val expectedEdges = lg.edges.count { case (u, v) =>
      lg.labels(u) == "A" && lg.labels(v) == "A"
    }
    assert(localSub.edgeCount == expectedEdges)
  }

  test("toLocal round-trips fromLocal") {
    val lg = GraphGen.randomLabeled(30, 3.0, Seq("A", "B", "C"), 53)
    val rt = toSpark(lg).toLocal
    assert(rt.n == lg.n)
    assert(rt.edgeCount == lg.edgeCount)
    val rtLabels = rt.ids.zip(rt.labels).toMap
    for (v <- 0 until lg.n) assert(rtLabels(lg.ids(v)) == lg.labels(v))
  }
}
