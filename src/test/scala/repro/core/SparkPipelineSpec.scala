package repro.core

import repro.SparkSpec
import repro.data.{GraphGen, QueryGen}
import repro.eval.Instrument
import repro.graph.{ButterflyCount, KCore, LabeledGraph}

/** Integration: the distributed Algorithm 2 (DataFrame dataflow) must agree
  * exactly with the local version, the hybrid pipeline (distributed
  * Algorithm 2, local refinement) must return the same communities as the
  * local pipeline, and the DataFrame coreness and butterfly operators
  * must reproduce the local index.
  */
class SparkPipelineSpec extends SparkSpec {

  private val planted = GraphGen.snapLike("amazon-lite")
  private val queries = QueryGen.queries2(planted, n = 3, seed = 77)
  private lazy val sparkGraph = LabeledGraph.fromLocal(spark, planted.graph).cached()

  test("paper Figure 1: distributed findG0 equals the published community") {
    val g = LabeledGraph.fromLocal(spark, PaperGraphs.figure1)
    val cand = FindG0.find(g, PaperGraphs.Fig1Ids.ql, PaperGraphs.Fig1Ids.qr, BCCParams(4, 3, 1))
    assert(cand.isDefined)
    assert(cand.get.g0.ids.toSet == PaperGraphs.figure2Community)
  }

  test("paper Figure 1: distributed chi matches local chi on the candidate") {
    val g = LabeledGraph.fromLocal(spark, PaperGraphs.figure1)
    val dCand = FindG0.find(g, PaperGraphs.Fig1Ids.ql, PaperGraphs.Fig1Ids.qr, BCCParams(4, 3, 1)).get
    val lCand = LocalBCC
      .findG0(PaperGraphs.figure1, PaperGraphs.Fig1Ids.ql, PaperGraphs.Fig1Ids.qr, BCCParams(4, 3, 1))
      .get
    val dChi = dCand.g0.ids.zip(dCand.chi).toMap
    val lChi = lCand.g0.ids.zip(lCand.chi).toMap
    assert(dChi == lChi)
  }

  for ((q, i) <- queries.zipWithIndex) {
    test(s"query $i: distributed findG0 vertex set equals local findG0") {
      val params = LocalBCC.defaultParams(planted.graph, q.ql, q.qr)
      val d = FindG0.find(sparkGraph, q.ql, q.qr, params)
      val l = LocalBCC.findG0(planted.graph, q.ql, q.qr, params)
      assert(d.map(_.g0.ids.toSet) == l.map(_.g0.ids.toSet))
    }

    test(s"query $i: runSpark community equals local run (Online)") {
      val params = LocalBCC.defaultParams(planted.graph, q.ql, q.qr)
      val d = FindG0.find(sparkGraph, q.ql, q.qr, params)
        .flatMap(Refine.fromCandidate(_, params, Refine.Naive, new Instrument, computeDiameter = false))
      val l = OnlineBCC.run(planted.graph, q.ql, q.qr, params, computeDiameter = false)
      assert(d.map(_.vertexIds) == l.map(_.vertexIds))
    }

    test(s"query $i: runSpark community equals local run (LP)") {
      val params = LocalBCC.defaultParams(planted.graph, q.ql, q.qr)
      val d = FindG0.find(sparkGraph, q.ql, q.qr, params)
        .flatMap(Refine.fromCandidate(_, params, Refine.FastLP, new Instrument, computeDiameter = false))
      val l = LPBCC.run(planted.graph, q.ql, q.qr, params, computeDiameter = false)
      assert(d.map(_.vertexIds) == l.map(_.vertexIds))
    }
  }

  test("distributed BCIndex coreness matches the local index") {
    val g = PaperGraphs.figure1
    val idx = BCIndex.build(g)
    // per label, the distributed coreness of its label-induced subgraph
    val sg = LabeledGraph.fromLocal(spark, g)
    val dCoreness = g.labelSet.toSeq
      .map(lab => KCore.coreness(sg.labelSubgraph(lab)))
      .reduce(_ union _)
      .collect()
      .map(r => r.getLong(0) -> r.getInt(1))
      .toMap
    for (v <- 0 until g.n)
      assert(dCoreness(g.ids(v)) == idx.coreness(v), s"vertex ${g.ids(v)}")
  }

  test("distributed per-pair butterfly index matches the local index") {
    val g = PaperGraphs.figure3
    val idx = BCIndex.build(g)
    val local = idx.butterflyDegrees("SE", "UI")
    val dist = ButterflyCount
      .perVertex(LabeledGraph.fromLocal(spark, g).crossEdges("SE", "UI"))
      .collect()
      .map(r => r.getLong(0) -> r.getLong(1))
      .toMap
    for (v <- 0 until g.n)
      assert(dist.getOrElse(g.ids(v), 0L) == local(v), s"vertex ${g.ids(v)}")
  }
}
