package repro.core

import org.scalacheck.Gen
import org.scalacheck.Prop.{forAll, propBoolean}
import org.scalatest.funsuite.AnyFunSuite
import repro.data.{GraphGen, QueryGen}
import repro.graph.{GraphGens, LocalGraph}

/** Tests for the multi-labeled BCC model (Section 7). */
class MultiBCCSpec extends AnyFunSuite {

  private val planted = GraphGen.baiduLike("baidu1-lite")

  /** Structural validation against Def. 8. */
  private def validateMBCC(
      g: LocalGraph,
      res: MultiBCC.MBCCResult,
      qs: Seq[Long],
      ks: Seq[Int],
      b: Int): Unit = {
    assert(qs.forall(res.vertexIds.contains), "missing a query vertex")
    val sub = g.inducedByIds(res.vertexIds)
    val labs = res.labels.toSet
    assert(sub.labelSet == labs, s"labels ${sub.labelSet} != $labs")
    // each group is a k_i-core in its induced label subgraph
    for (v <- 0 until sub.n) {
      val i = res.labels.indexOf(sub.labels(v))
      val intra = sub.neighbors(v).count(u => sub.labels(u) == sub.labels(v))
      assert(intra >= ks(i), s"vertex ${sub.ids(v)} intra degree $intra < ${ks(i)}")
    }
    // cross-group connectivity over the label meta-graph
    val m = res.labels.length
    val masks = res.labels.map(l => Array.tabulate(sub.n)(v => sub.labels(v) == l))
    val parent = Array.tabulate(m)(identity)
    def find(x: Int): Int = { var r = x; while (parent(r) != r) r = parent(r); r }
    for (i <- 0 until m; j <- i + 1 until m) {
      val chi = sub.butterflyDegrees(masks(i), masks(j))
      val maxI = (0 until sub.n).filter(masks(i)).map(chi).foldLeft(0L)(math.max)
      val maxJ = (0 until sub.n).filter(masks(j)).map(chi).foldLeft(0L)(math.max)
      if (maxI >= b && maxJ >= b) parent(find(i)) = find(j)
    }
    assert((0 until m).map(find).distinct.size == 1, "label meta-graph not connected")
    // whole community connected
    assert(!sub.bfs(Seq(0)).contains(LocalGraph.Inf), "community not connected")
  }

  for (m <- 2 to 4) {
    val queries = QueryGen.queriesM(planted, m, n = 4, seed = m * 10)
    for ((q, i) <- queries.zipWithIndex)
      test(s"m=$m query $i: mBCC answer is valid when found") {
        val ks = Seq.fill(m)(2)
        MultiBCC.run(planted.graph, q.qs, ks, b = 1).foreach { res =>
          validateMBCC(planted.graph, res, q.qs, ks, 1)
        }
      }
  }

  test("run rejects a negative k or b") {
    val g = LocalGraph(Seq((0L, "A"), (1L, "B")), Seq((0L, 1L)))
    intercept[IllegalArgumentException](MultiBCC.run(g, Seq(0L, 1L), Seq(1, -1), 0))
    intercept[IllegalArgumentException](MultiBCC.run(g, Seq(0L, 1L), Seq(0, 0), -1))
  }

  test("m=2 mBCC agrees with the 2-label BCC search") {
    val queries = QueryGen.queriesM(planted, 2, n = 6, seed = 3)
    var agreed = 0
    for (q <- queries) {
      val Seq(ql, qr) = q.qs
      val mres = MultiBCC.run(planted.graph, q.qs, Seq(2, 2), b = 1)
      val bres = OnlineBCC.run(planted.graph, ql, qr, BCCParams(2, 2, 1), computeDiameter = false)
      assert(mres.isDefined == bres.isDefined)
      for { mr <- mres; br <- bres } {
        assert(mr.vertexIds == br.vertexIds)
        agreed += 1
      }
    }
    assert(agreed > 0, "no query produced a community; generator too sparse")
  }

  for (m <- 2 to 4)
    test(s"m=$m: fast (LP-style) mode returns the same community as naive mode") {
      val queries = QueryGen.queriesM(planted, m, n = 3, seed = m * 31)
      for (q <- queries) {
        val ks = Seq.fill(m)(2)
        val slow = MultiBCC.run(planted.graph, q.qs, ks, b = 1)
        val fast = MultiBCC.run(planted.graph, q.qs, ks, b = 1, fast = true)
        assert(slow.map(_.vertexIds) == fast.map(_.vertexIds))
        assert(slow.map(_.queryDistance) == fast.map(_.queryDistance))
      }
    }

  /** A random graph from `graphs` with three queries of distinct labels,
    * core thresholds in 0..4 and a butterfly threshold in 0..3.
    */
  private def m3Case(graphs: Gen[LocalGraph]): Gen[(LocalGraph, Seq[Long], Seq[Int], Int)] = for {
    g <- graphs.suchThat(_.labelSet.size >= 3)
    labs <- Gen.pick(3, g.labelSet.toSeq.sorted)
    qs <- Gen.sequence[Seq[Long], Long](labs.map(l => Gen.oneOf(g.labelVertices(l).toSeq).map(g.ids)))
    ks <- Gen.listOfN(3, Gen.choose(0, 4))
    b <- Gen.choose(0, 3)
  } yield (g, qs, ks, b)

  /** Fast and naive m = 3 searches agree over 2000 cases and their answers
    * meet Def. 8; at least `minFound` cases find an mBCC and at least
    * `minMultiRound` of those take two or more rounds.
    */
  private def checkM3(graphs: Gen[LocalGraph], minFound: Int, minMultiRound: Int): Unit = {
    var found, multiRound = 0 // most random cases have no mBCC; some must
    GraphGens.check(cases = 2000, prop = forAll(m3Case(graphs)) { case (g, qs, ks, b) =>
      val slow = MultiBCC.run(g, qs, ks, b)
      val fast = MultiBCC.run(g, qs, ks, b, fast = true)
      slow.foreach(validateMBCC(g, _, qs, ks, b))
      fast.foreach(validateMBCC(g, _, qs, ks, b))
      if (slow.isDefined) found += 1
      if (slow.exists(_.rounds >= 2)) multiRound += 1
      (slow.map(_.vertexIds) == fast.map(_.vertexIds)) :| "vertex sets" &&
        (slow.map(_.queryDistance) == fast.map(_.queryDistance)) :| "query distance"
    })
    assert(found >= minFound && multiRound >= minMultiRound,
      s"$found of 2000 cases found an mBCC, $multiRound in two or more rounds")
  }

  test("property: m=3 fast and naive modes agree on random graphs, and answers meet Def. 8") {
    checkM3(GraphGens.graphOn(Gen.choose(3, 4)), minFound = 10, minMultiRound = 0)
  }

  test("property: m=3 fast and naive modes agree with bicliques across every label pair, and answers meet Def. 8") {
    checkM3(GraphGens.graphAcrossPairs, minFound = 100, minMultiRound = 40)
  }

  test("duplicate labels in the query are rejected") {
    val c = planted.communities.head
    val (lab, members) = c.groups.head
    val two = members.take(2).toSeq
    assert(MultiBCC.run(planted.graph, two, Seq(1, 1), b = 1).isEmpty)
  }

  test("m=1 query is rejected") {
    intercept[IllegalArgumentException] {
      MultiBCC.run(planted.graph, Seq(planted.graph.ids(0)), Seq(1), b = 1)
    }
  }

  test("impossible core parameters return no community") {
    val q = QueryGen.queriesM(planted, 2, n = 1, seed = 4).head
    assert(MultiBCC.run(planted.graph, q.qs, Seq(1000, 1000), b = 1).isEmpty)
  }
}
