package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.baseline.{CTC, PSA}
import repro.core.MultiBCC
import repro.data.{GraphGen, QueryGen}
import repro.eval.{F1, Harness}

/** Reproduces Exp-9 (Figure 14: multi-labeled quality) and Exp-10
  * (Figure 10: multi-labeled efficiency): F1 and runtime of the mBCC search
  * vs the label-blind CTC and PSA competitors, varying the number of query
  * labels m on the Baidu-like networks.
  */
object Exp9Exp10MultiLabelBench {
  final case class Cell(f1: Double, sec: Double)

  lazy val results: Seq[(String, Int, Map[String, Cell])] = {
    val nQueries = 6
    for {
      name <- Seq("baidu1-lite", "baidu2-lite")
      m <- Seq(2, 3, 4)
    } yield {
      val p = GraphGen.baiduLike(name)
      val qs = QueryGen.queriesM(p, m, nQueries, seed = 900 + m)
      val sums = scala.collection.mutable.Map[String, (Double, Double)]()
      def rec(k: String, res: Option[Set[Long]], sec: Double, truth: Set[Long]): Unit = {
        val (f, s) = sums.getOrElse(k, (0.0, 0.0))
        sums(k) = (f + res.map(F1.f1(_, truth)).getOrElse(0.0), s + sec)
      }
      for (q <- qs) {
        def timed[T](f: => T): (T, Double) = {
          val t0 = System.nanoTime(); val r = f; (r, (System.nanoTime() - t0) / 1e9)
        }
        val (rC, tC) = timed(CTC.run(p.graph, q.qs))
        rec("CTC", rC, tC, q.truth)
        val (rP, tP) = timed(PSA.run(p.graph, q.qs))
        rec("PSA", rP, tP, q.truth)
        val (rM, tM) = timed(
          MultiBCC.run(p.graph, q.qs, Seq.fill(m)(2), b = 1).map(_.vertexIds))
        rec("mBCC", rM, tM, q.truth)
        val (rF, tF) = timed(
          MultiBCC.run(p.graph, q.qs, Seq.fill(m)(2), b = 1, fast = true).map(_.vertexIds))
        rec("mBCC-LP", rF, tF, q.truth)
      }
      val n = math.max(1, qs.size)
      (name, m, sums.map { case (k, (f, s)) => k -> Cell(f / n, s / n) }.toMap)
    }
  }
}

class Exp9Exp10MultiLabelBench extends AnyFunSuite {
  import Exp9Exp10MultiLabelBench._

  private val methodOrder = Seq("CTC", "PSA", "mBCC", "mBCC-LP")

  test("Exp-9 (Figure 14): multi-labeled F1 vs m") {
    val rows = results.map { case (name, m, cells) =>
      Seq(name, m.toString) ++ methodOrder.map(k => Harness.f(cells(k).f1))
    }
    Harness.printTable(
      "Exp-9: mean F1 by network and query label count m",
      Seq("network", "m") ++ methodOrder,
      rows)
    assert(rows.nonEmpty)
  }

  test("Exp-10 (Figure 10): multi-labeled query time vs m") {
    val rows = results.map { case (name, m, cells) =>
      Seq(name, m.toString) ++ methodOrder.map(k => Harness.f(cells(k).sec))
    }
    Harness.printTable(
      "Exp-10: mean seconds by network and query label count m",
      Seq("network", "m") ++ methodOrder,
      rows)
    assert(rows.nonEmpty)
  }

  test("Exp-9 shape: mBCC beats the label-blind baselines on average") {
    def avg(k: String): Double = results.map(_._3(k).f1).sum / results.size
    assert(avg("mBCC") > avg("CTC"), s"mBCC=${avg("mBCC")} CTC=${avg("CTC")}")
    assert(avg("mBCC") > avg("PSA"), s"mBCC=${avg("mBCC")} PSA=${avg("PSA")}")
  }

  test("Exp-10 shape: the LP-style extension matches naive mBCC quality") {
    for ((name, m, cells) <- results)
      assert(math.abs(cells("mBCC").f1 - cells("mBCC-LP").f1) < 1e-9, s"$name m=$m")
  }

  test("Exp-9 shape: quality degrades (weakly) as m grows") {
    for (name <- Seq("baidu1-lite", "baidu2-lite")) {
      val byM = results.collect { case (`name`, m, cells) => m -> cells("mBCC").f1 }.toMap
      assert(byM(4) <= byM(2) + 0.15, s"$name: ${byM.toSeq.sorted}")
    }
  }
}
