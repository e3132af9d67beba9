package repro.eval

import repro.baseline.{CTC, PSA}
import repro.core._
import repro.data.QueryGen.Query2
import repro.graph.LocalGraph

/** Shared experiment harness used by the bench suites and the spark-submit
  * jobs: runs the five §8 methods (CTC, PSA, Online-BCC, LP-BCC, L2P-BCC)
  * over a query workload and aggregates F1 / runtime / instrumentation.
  */
object Harness {

  /** One table cell: mean F1 and mean per-query seconds over a workload. */
  final case class Cell(meanF1: Double, meanSec: Double, found: Int, total: Int)

  /** Method display order (matches the paper's figures). */
  val methods: Seq[String] = Seq("CTC", "PSA", "Online-BCC", "LP-BCC", "L2P-BCC")

  /** Per-graph immutable context shared across queries: the L2P
    * butterfly-core index (offline in the paper's setting). CTC's truss
    * decomposition is cached by the graph itself.
    */
  final class GraphContext(val g: LocalGraph) {
    lazy val index: BCIndex = BCIndex.build(g)
  }

  private def timed[T](f: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = f
    (r, (System.nanoTime() - t0) / 1e9)
  }

  /** Run every method on every query; returns method -> aggregated cell. */
  def evalAll(ctx: GraphContext, queries: Seq[Query2]): Map[String, Cell] = {
    val g = ctx.g
    val sums = scala.collection.mutable.Map[String, (Double, Double, Int)]()
    def record(m: String, res: Option[Set[Long]], sec: Double, truth: Set[Long]): Unit = {
      val (f1s, secs, found) = sums.getOrElse(m, (0.0, 0.0, 0))
      val f1 = res.map(F1.f1(_, truth)).getOrElse(0.0)
      sums(m) = (f1s + f1, secs + sec, found + (if (res.isDefined) 1 else 0))
    }
    for (q <- queries) {
      val params = LocalBCC.defaultParams(g, q.ql, q.qr)
      val (rCtc, tCtc) = timed(CTC.run(g, Seq(q.ql, q.qr)))
      record("CTC", rCtc, tCtc, q.truth)
      val (rPsa, tPsa) = timed(PSA.run(g, Seq(q.ql, q.qr)))
      record("PSA", rPsa, tPsa, q.truth)
      val (rOn, tOn) = timed(
        OnlineBCC.run(g, q.ql, q.qr, params, computeDiameter = false).map(_.vertexIds))
      record("Online-BCC", rOn, tOn, q.truth)
      val (rLp, tLp) = timed(
        LPBCC.run(g, q.ql, q.qr, params, computeDiameter = false).map(_.vertexIds))
      record("LP-BCC", rLp, tLp, q.truth)
      val (rL2p, tL2p) = timed(
        L2PBCC.run(g, q.ql, q.qr, params, ctx.index, computeDiameter = false).map(_.vertexIds))
      record("L2P-BCC", rL2p, tL2p, q.truth)
    }
    val n = math.max(1, queries.size)
    sums.map { case (m, (f1s, secs, found)) => m -> Cell(f1s / n, secs / n, found, n) }.toMap
  }

  /** Summed instruments for Online-BCC and LP-BCC (Table 4 rows). */
  final case class Breakdown(online: Instrument, lp: Instrument)

  def breakdown(g: LocalGraph, queries: Seq[Query2]): Breakdown = {
    val iOn = new Instrument
    val iLp = new Instrument
    for (q <- queries) {
      val params = LocalBCC.defaultParams(g, q.ql, q.qr)
      OnlineBCC.run(g, q.ql, q.qr, params, iOn, computeDiameter = false)
      LPBCC.run(g, q.ql, q.qr, params, iLp, computeDiameter = false)
    }
    Breakdown(iOn, iLp)
  }

  /** Fixed-width table printer (also the EXPERIMENTS.md source format). */
  def printTable(title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def fmt(r: Seq[String]): String =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    val s = (Seq(s"### $title", fmt(header), sep) ++ rows.map(fmt)).mkString("\n")
    println(s)
    s
  }

  def f(x: Double): String = f"$x%.3f"
}
