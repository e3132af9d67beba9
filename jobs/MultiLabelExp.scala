package repro.jobs

import repro.baseline.{CTC, PSA}
import repro.core.MultiBCC
import repro.data.{GraphGen, QueryGen}
import repro.eval.{F1, Harness}

/** spark-submit entrypoint reproducing Exp-9/Exp-10 (multi-labeled BCC
  * quality and efficiency vs the number of query labels m).
  *
  * Usage: spark-submit --class repro.jobs.MultiLabelExp repro.jar [nQueries]
  */
object MultiLabelExp {

  def main(args: Array[String]): Unit = {
    val nQueries = args.headOption.map(_.toInt).getOrElse(6)
    val rows = for {
      name <- Seq("baidu1-lite", "baidu2-lite")
      m <- Seq(2, 3, 4)
    } yield {
      val p = GraphGen.baiduLike(name)
      val qs = QueryGen.queriesM(p, m, nQueries, seed = 900 + m)
      var (fC, fP, fM, tC, tP, tM) = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
      for (q <- qs) {
        def timed[T](f: => T): (T, Double) = {
          val t0 = System.nanoTime(); val r = f; (r, (System.nanoTime() - t0) / 1e9)
        }
        val (rC, dC) = timed(CTC.run(p.graph, q.qs))
        fC += rC.map(F1.f1(_, q.truth)).getOrElse(0.0); tC += dC
        val (rP, dP) = timed(PSA.run(p.graph, q.qs))
        fP += rP.map(F1.f1(_, q.truth)).getOrElse(0.0); tP += dP
        val (rM, dM) = timed(MultiBCC.run(p.graph, q.qs, Seq.fill(m)(2), b = 1))
        fM += rM.map(r => F1.f1(r.vertexIds, q.truth)).getOrElse(0.0); tM += dM
      }
      val n = math.max(1, qs.size)
      Seq(name, m.toString,
        Harness.f(fC / n), Harness.f(fP / n), Harness.f(fM / n),
        Harness.f(tC / n), Harness.f(tP / n), Harness.f(tM / n))
    }
    Harness.printTable(
      "Exp-9/10: multi-labeled BCC quality and efficiency",
      Seq("network", "m", "F1 CTC", "F1 PSA", "F1 mBCC", "s CTC", "s PSA", "s mBCC"),
      rows)
  }
}
