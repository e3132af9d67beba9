package qbench

import scala.collection.mutable
import scala.util.control.NonFatal
import repro.baseline.{CTC, PSA}
import repro.core._
import repro.eval.{F1, Instrument}
import repro.graph.LocalGraph

/** Answer of one call (or the exception it threw) and its wall time. */
final case class Call(answer: Either[String, Option[Set[Long]]], nanos: Long) {
  def ids: Option[Set[Long]] = answer.toOption.flatten
}

/** The six methods of one query, called through the public entry points of
  * `repro.core` and `repro.baseline` in a fixed order, plus the correctness
  * gate applied to their answers outside the timed calls.
  */
final class Methods(g: LocalGraph, truss: Map[(Int, Int), Int], m: Int) {
  import Methods._

  private def timed(f: => Option[Set[Long]]): Call = {
    val t0 = System.nanoTime()
    val r = try Right(f) catch { case NonFatal(e) => Left(e.toString) }
    Call(r, System.nanoTime() - t0)
  }

  private def params(q: Query): BCCParams = LocalBCC.defaultParams(g, q.qs(0), q.qs(1))

  /** mBCC core thresholds: `defaultParams` of `qs(0)` against each other
    * query (k1 of the first pair gives `qs(0)`'s own threshold).
    */
  private def mbccParams(q: Query): (Seq[Int], Int) = {
    val p = params(q)
    (Seq(p.k1, p.k2) ++ q.qs.drop(2).map(x => LocalBCC.defaultParams(g, q.qs(0), x).k2), p.b)
  }

  /** One untraced query: six timed calls, in [[Names]] order. */
  def run(q: Query, index: BCIndex): Vector[Call] = {
    val (ql, qr) = (q.qs(0), q.qs(1))
    Vector(
      timed(OnlineBCC.run(g, ql, qr, params(q), computeDiameter = false).map(_.vertexIds)),
      timed(LPBCC.run(g, ql, qr, params(q), computeDiameter = false).map(_.vertexIds)),
      timed(L2PBCC.run(g, ql, qr, params(q), index, computeDiameter = false).map(_.vertexIds)),
      timed { val (ks, b) = mbccParams(q); MultiBCC.run(g, q.qs, ks, b, fast = true).map(_.vertexIds) },
      timed(CTC.run(g, q.qs, trussCache = Some(truss))),
      timed(PSA.run(g, q.qs)))
  }

  /** One traced query. Online and LP are composed from their public steps
    * (defaultParams, findG0, engine, Refine.run) so each step gets a span;
    * the other methods get one span each. Counters from `eval.Instrument`
    * are added to `counters` under their per-layer metric names.
    */
  def runTraced(q: Query, index: BCIndex, tr: Tracer, seenPairs: mutable.Set[(String, String)],
      counters: mutable.Map[String, Double]): Vector[Call] = {
    val (ql, qr) = (q.qs(0), q.qs(1))
    def add(k: String, x: Double): Unit = counters(k) = counters.getOrElse(k, 0.0) + x

    // Online or LP as its public steps, each in a span; the Instrument
    // counters are added after the method span closes
    def pipeline(name: String, mode: Refine.Mode): Call = {
      val inst = new Instrument
      var alg2Counts = 0
      var cand: Option[Candidate] = None
      val call = timed(tr.span(name) {
        val p = tr.span(s"$name.params")(LocalBCC.defaultParams(g, ql, qr))
        cand = tr.span(s"$name.findg0")(LocalBCC.findG0(g, ql, qr, p, inst))
        alg2Counts = inst.butterflyCountCalls // Algorithm 2's count, untimed by Instrument
        tr.span(s"$name.refine")(cand.flatMap { c =>
          val e = new BCCEngine(c.g0, p, c.ql, c.qr, inst)
          e.seedChi(c.chi)
          Refine.run(e, mode, computeDiameter = false)
        }).map(_.vertexIds)
      })
      cand.foreach { c => add("g0.count", 1); add("localbcc.g0_frac", c.g0.n.toDouble / g.n) }
      add(s"refine.${name}_rounds", inst.rounds)
      add(s"refine.${name}_alg3_calls", inst.butterflyCountCalls - alg2Counts)
      add(s"refine.${name}_alg3_ms", inst.butterflyCountNanos / 1e6)
      add(s"refine.${name}_dist_ms", inst.queryDistNanos / 1e6)
      add(s"refine.${name}_alg7_ms", inst.leaderUpdateNanos / 1e6)
      call
    }

    tr.span("query") {
      val on = pipeline("online", Refine.Naive)
      val lp = pipeline("lp", Refine.FastLP)
      // first-use pair counts of the index, attributed outside the l2p call
      val (la, lb) = (g.labels(g.indexOf(ql)), g.labels(g.indexOf(qr)))
      val pair = if (la <= lb) (la, lb) else (lb, la)
      tr.span("bcindex.pair")(index.butterflyDegrees(la, lb))
      if (seenPairs.add(pair)) add("bcindex.pair_misses", 1)
      val l2pInst = new Instrument
      val l2p = timed(tr.span("l2p")(
        L2PBCC.run(g, ql, qr, params(q), index, l2pInst, computeDiameter = false).map(_.vertexIds)))
      add("l2p.alg3_calls", l2pInst.butterflyCountCalls)
      add("l2p.refine_ms", (l2pInst.queryDistNanos + l2pInst.butterflyCountNanos + l2pInst.leaderUpdateNanos) / 1e6)
      val mInst = new Instrument
      val mb = timed(tr.span("mbcc") {
        val (ks, b) = mbccParams(q)
        MultiBCC.run(g, q.qs, ks, b, mInst, fast = true).map(_.vertexIds)
      })
      add("mbcc.rounds", mInst.rounds)
      add("mbcc.alg3_calls", mInst.butterflyCountCalls)
      add("mbcc.alg7_ms", mInst.leaderUpdateNanos / 1e6)
      val cInst = new Instrument
      val ctc = timed(tr.span("ctc")(CTC.run(g, q.qs, cInst, trussCache = Some(truss))))
      add("ctc.rounds", cInst.rounds)
      val pInst = new Instrument
      val psa = timed(tr.span("psa")(PSA.run(g, q.qs, inst = pInst)))
      add("psa.rounds", pInst.rounds)
      Vector(on, lp, l2p, mb, ctc, psa)
    }
  }

  /** Correctness gate: a failure reason per method (None = passed). A
    * thrown exception, a missing community ([[Methods.NoCommunity]]) and a
    * failed check all fail; all but the missing community are wrong answers.
    */
  def check(q: Query, calls: Vector[Call]): Vector[Option[String]] = {
    val (ql, qr) = (q.qs(0), q.qs(1))
    lazy val p = params(q)
    val online = calls(0).ids
    def bcc(c: Call): Option[String] =
      Model.violations(g, c.ids.get, ql, qr, p) match {
        case Nil  => None
        case errs => Some("violations: " + errs.take(3).mkString("; "))
      }
    def sameAsOnline(c: Call): Option[String] =
      if (online.isDefined && c.ids != online) Some("differs from online") else None
    def mbcc(c: Call): Option[String] =
      if (!q.qs.forall(c.ids.get)) Some("missing a query vertex")
      else if (m == 2) sameAsOnline(c)
      else {
        val (ks, b) = mbccParams(q)
        val naive = MultiBCC.run(g, q.qs, ks, b, fast = false).map(_.vertexIds)
        if (naive != c.ids) Some("fast differs from naive") else None
      }
    def connectedWithQueries(c: Call): Option[String] = {
      val ids = c.ids.get
      if (!q.qs.forall(ids)) Some("missing a query vertex")
      else {
        val sub = g.inducedByIds(ids)
        if (sub.bfs(Seq(sub.indexOf(ql))).contains(LocalGraph.Inf)) Some("not connected") else None
      }
    }
    val gates: Vector[Call => Option[String]] = Vector(
      bcc,
      c => bcc(c).orElse(sameAsOnline(c)),
      bcc,
      mbcc,
      connectedWithQueries,
      connectedWithQueries)
    calls.zip(gates).map {
      case (Call(Left(err), _), _)     => Some(s"exception: $err")
      case (Call(Right(None), _), _)   => Some(NoCommunity)
      case (c, gate) =>
        try gate(c) catch { case NonFatal(e) => Some(s"check threw: $e") }
    }
  }

  /** F1 of a method's answer against the planted truth (0 without one). */
  def f1(q: Query, c: Call): Double = c.ids.map(F1.f1(_, q.truth2)).getOrElse(0.0)
}

object Methods {
  /** Failure reason of a call that found no community. */
  val NoCommunity = "no community"

  val Names: Vector[String] = Vector("online", "lp", "l2p", "mbcc", "ctc", "psa")
}
