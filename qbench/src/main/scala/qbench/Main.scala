package qbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.nio.file.{Files, Paths}
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import scala.util.Random
import repro.core.BCIndex

/** Single-threaded, closed-loop query benchmark (one client; each query's
  * six calls run back to back). With `--trace 0` this JVM is one fork of an
  * end-to-end run and prints its raw samples as a `fork` line; with
  * `--trace 1` it prints an info line and then the per-layer result object.
  * Exits 1 when any answer is wrong, 2 on bad arguments.
  *
  * Usage: `Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  * [--fork <i> --forks <k>] [--spans <file>]`
  */
object Main {

  /** Set-ups per JVM; `setup_s` is the median over every set-up of a run. */
  val SetupRepeats = 5

  /** Untimed warm-up before timing, in seconds. */
  val WarmupSeconds = 4.0

  /** Passes of an end-to-end fork over its queries; a call's sample is
    * its fastest pass.
    */
  val Passes = 2

  /** Failures listed in the info line (all are counted). */
  val MaxListedFailures = 20

  final class Instance(
      val gen: Generated,
      val index: BCIndex,
      val truss: Map[(Int, Int), Int],
      val queries: IndexedSeq[Query],
      val phaseMs: Seq[(String, Double)]) {
    def g = gen.g
  }

  private def ms[T](f: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = f
    (r, (System.nanoTime() - t0) / 1e6)
  }

  /** Everything before the first query: graph generation, BCIndex build,
    * whole-graph truss map (CTC's offline index) and the `n` queries of the
    * workload's query set, in an order shuffled from `seed`.
    */
  def setup(w: Workload, seed: Long, n: Int): Instance = {
    val (gen, graphMs) = ms(w.generate())
    val (index, indexMs) = ms(BCIndex.build(gen.g))
    val (truss, trussMs) = ms(gen.g.trussness())
    val (queries, queriesMs) = ms(new Random(seed).shuffle(gen.queries(n, Workloads.QuerySeed)))
    new Instance(gen, index, truss, queries, Seq(
      "data.graph_ms" -> graphMs, "bcindex.build_ms" -> indexMs,
      "graph.truss_ms" -> trussMs, "data.queries_ms" -> queriesMs))
  }

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  private def gcTotals(): (Long, Long) = {
    val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala
    (beans.map(_.getCollectionTime).sum, beans.map(_.getCollectionCount).sum)
  }

  /** Counts checked calls and keeps the first few failure reasons. A
    * failed call is one that did not return a community passing its checks;
    * a wrong one threw, failed a check or disagreed with its reference.
    */
  final class Tally {
    var attempted = 0
    var failed = 0
    var wrong = 0
    val byMethod = mutable.TreeMap.empty[String, Int]
    val listed = ArrayBuffer.empty[String]
    def add(qi: Int, q: Query, verdicts: Seq[Option[String]], names: Seq[String]): Unit =
      for ((v, name) <- verdicts.zip(names)) {
        attempted += 1
        v.foreach { reason =>
          failed += 1
          if (reason != Methods.NoCommunity) wrong += 1
          byMethod(name) = byMethod.getOrElse(name, 0) + 1
          if (listed.length < MaxListedFailures)
            listed += s"$name query#$qi ${q.qs.mkString("(", ",", ")")}: $reason"
        }
      }
  }

  def main(argv: Array[String]): Unit = {
    val opts = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def fail(msg: String): Nothing = { System.err.println(msg); sys.exit(2) }
    val w = opts.get("workload").flatMap(Workloads.byName)
      .getOrElse(fail(s"--workload must be one of ${Workloads.all.map(_.name).mkString(", ")}"))
    val seed = opts.get("seed").flatMap(_.toLongOption).getOrElse(fail("--seed <n> required"))
    val seconds = opts.get("seconds").flatMap(_.toDoubleOption).filter(_ > 0).getOrElse(fail("--seconds <s> required"))
    val forks = opts.get("forks").flatMap(_.toIntOption).filter(_ > 0).getOrElse(1)
    val fork = opts.get("fork").flatMap(_.toIntOption).filter(i => i >= 0 && i < forks)
      .getOrElse(if (opts.contains("fork")) fail("--fork must be in [0, --forks)") else 0)
    val trace = opts.get("trace").contains("1")
    val setSize = if (trace) w.traceQueries else w.timedQueries(seconds)

    // set up several times; keep only the last instance alive
    var inst: Instance = null
    val setups = (1 to SetupRepeats).map { _ =>
      inst = null
      System.gc()
      val (i, total) = ms(setup(w, seed, setSize))
      inst = i
      ("setup_ms" -> total) +: i.phaseMs
    }
    System.gc()
    // live heap: what the full collection left in the heap pools
    val heapMb = ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(_.getType == MemoryType.HEAP)
      .flatMap(p => Option(p.getCollectionUsage)).map(_.getUsed).sum / 1048576.0

    val methods = new Methods(inst.g, inst.truss, w.m)
    // untimed warm-up: its own index and a query set from another seed
    val warmIndex = BCIndex.build(inst.g)
    val warm = inst.gen.queries(Workloads.WarmupPool, seed * 31 + 2)
    val warmEnd = System.nanoTime() + (WarmupSeconds * 1e9).toLong
    var wi = 0
    while (wi < warm.length && System.nanoTime() < warmEnd) {
      methods.check(warm(wi), methods.run(warm(wi), warmIndex))
      wi += 1
    }

    val tally = new Tally
    val (gcMs0, gcCount0) = gcTotals()
    val out = ArrayBuffer[(String, Any)](
      "workload" -> w.name, "seed" -> seed, "trace" -> trace,
      "jvm_flags" -> ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.toSeq,
      "graph" -> Workloads.profile(inst.g),
      "warmup_queries" -> wi)
    val metrics =
      if (!trace) {
        out ++= Seq("setup_s" -> setups.map(_.head._2 / 1e3), "heap_mb" -> heapMb)
        timedRun(inst, methods, setSize * fork / forks, setSize * (fork + 1) / forks, tally, out)
        Nil
      } else {
        val setupMedian = setups.head.map(_._1).map(k => k -> median(setups.map(_.toMap.apply(k)))).toMap
        tracedRun(inst, methods, tally, out, opts.get("spans")) ++
          Seq("bcindex.build_ms", "graph.truss_ms", "data.graph_ms", "data.queries_ms")
            .map(k => (k, setupMedian(k), "ms"))
      }
    val (gcMs1, gcCount1) = gcTotals()
    out ++= Seq("gc_ms" -> (gcMs1 - gcMs0), "gc_count" -> (gcCount1 - gcCount0),
      "attempted" -> tally.attempted, "failed" -> tally.failed, "wrong" -> tally.wrong,
      "failed_by_method" -> tally.byMethod, "failures" -> tally.listed)

    if (!trace) println(Json.render(Json.obj("fork" -> Json.Obj(out.toSeq))))
    else {
      println(Json.render(Json.obj("info" -> Json.Obj(out.toSeq))))
      println(Json.render(Json.obj(
        "correct" -> (tally.wrong == 0),
        "attempted" -> tally.attempted,
        "failed" -> tally.failed,
        "metrics" -> Json.Obj(metrics.map { case (k, v, unit) => k -> Json.obj("value" -> v, "unit" -> unit) }))))
    }
    System.out.flush()
    sys.exit(if (tally.wrong == 0) 0 else 1)
  }

  /** One fork of the end-to-end run: queries `from` until `until` of the
    * run's query set, in [[Passes]] passes over that slice, each pass on its
    * own fresh index so every pass pays the same first-use pair counts. A
    * call's sample is its fastest pass: a burst of load from elsewhere on
    * the machine slows a stretch of one pass, and would otherwise decide
    * which calls make up the tail. Pass 1's answers go through the
    * correctness gate; a later pass must return the same answers. Checks
    * run between queries, outside the timed calls. The launcher pools the
    * forks' samples and takes the percentiles.
    */
  def timedRun(inst: Instance, methods: Methods, from: Int, until: Int,
      tally: Tally, out: ArrayBuffer[(String, Any)]): Unit = {
    val qs = inst.queries.slice(from, until)
    val best = Vector.fill(Methods.Names.length)(Array.fill(qs.length)(Long.MaxValue))
    val first = new Array[(Vector[Call], Vector[Option[String]])](qs.length)
    var f1Lp, f1L2p = 0.0
    for (pass <- 0 until Passes) {
      val index = if (pass == 0) inst.index else BCIndex.build(inst.g)
      for ((q, j) <- qs.zipWithIndex) {
        val calls = methods.run(q, index)
        for ((c, i) <- calls.zipWithIndex) best(i)(j) = math.min(best(i)(j), c.nanos)
        if (pass == 0) {
          first(j) = (calls, methods.check(q, calls))
          f1Lp += methods.f1(q, calls(1))
          f1L2p += methods.f1(q, calls(2))
        }
        val (calls1, verdicts1) = first(j)
        val verdicts = calls.zip(calls1).zip(verdicts1).map { case ((c, c1), v1) =>
          if (c.answer != c1.answer) Some(s"pass ${pass + 1} differs from pass 1") else v1
        }
        tally.add(from + j, q, verdicts, Methods.Names)
      }
    }
    out ++= Seq(
      "queries" -> qs.length,
      "samples_ns" -> Json.Obj(Methods.Names.zip(best.map(_.toSeq))),
      "f1_sum" -> Json.obj("lp" -> f1Lp, "l2p" -> f1L2p))
  }

  /** Per-layer run: the `traceQueries` queries of the set, each run once
    * untraced and then once traced (each pass on its own fresh index), so
    * the two passes see the same JIT state, the difference is the tracing
    * overhead, and every traced answer can be compared with its untraced one.
    */
  def tracedRun(inst: Instance, methods: Methods, tally: Tally,
      info: ArrayBuffer[(String, Any)], spansOut: Option[String]): Seq[(String, Double, String)] = {
    val qs = inst.queries
    val k = qs.length.toDouble
    val tr = new Tracer
    val counters = mutable.Map.empty[String, Double]
    val seenPairs = mutable.Set.empty[(String, String)]
    val tracedIndex = BCIndex.build(inst.g)
    var untracedNanos, checkNanos, gcMs, gcCount = 0L
    for ((q, qi) <- qs.zipWithIndex) {
      val (gcMs0, gcCount0) = gcTotals()
      val untraced = methods.run(q, inst.index)
      val (gcMs1, gcCount1) = gcTotals()
      gcMs += gcMs1 - gcMs0
      gcCount += gcCount1 - gcCount0
      untracedNanos += untraced.map(_.nanos).sum
      val t0 = System.nanoTime()
      tally.add(qi, q, methods.check(q, untraced), Methods.Names)
      checkNanos += System.nanoTime() - t0
      tr.query = qi
      val traced = methods.runTraced(q, tracedIndex, tr, seenPairs, counters)
      val same = untraced.zip(traced).map { case (a, b) =>
        if (a.answer == b.answer) None else Some("traced answer differs from untraced")
      }
      tally.add(qi, q, same, Methods.Names.map("traced " + _))
    }
    info += "samples" -> Methods.Names.map(_ -> qs.length).toMap
    spansOut.foreach { path =>
      val p = Paths.get(path)
      Option(p.getParent).foreach(Files.createDirectories(_))
      Files.write(p, tr.jsonLines.toSeq.asJava)
      info += "spans_file" -> path
    }

    val untracedMs = untracedNanos / 1e6
    val tracedMs = Seq("online", "lp", "bcindex.pair", "l2p", "mbcc", "ctc", "psa").map(tr.totalMs).sum
    def per(key: String): Double = counters.getOrElse(key, 0.0) / k
    def spanPer(name: String): Double = tr.totalMs(name) / k
    val refine = Seq("online", "lp").flatMap { m =>
      val total = spanPer(s"$m.refine")
      val parts = Seq("alg3_ms", "dist_ms") ++ (if (m == "lp") Seq("alg7_ms") else Nil)
      Seq((s"refine.${m}_ms", total, "ms"),
        (s"refine.${m}_rounds", per(s"refine.${m}_rounds"), "count"),
        (s"refine.${m}_alg3_calls", per(s"refine.${m}_alg3_calls"), "count")) ++
        parts.map(p => (s"refine.${m}_$p", per(s"refine.${m}_$p"), "ms")) :+
        ((s"refine.${m}_other_ms", total - parts.map(p => per(s"refine.${m}_$p")).sum, "ms"))
    }
    Seq(
      ("localbcc.params_ms", (spanPer("online.params") + spanPer("lp.params")) / 2, "ms"),
      ("localbcc.findg0_ms", (spanPer("online.findg0") + spanPer("lp.findg0")) / 2, "ms"),
      ("localbcc.g0_frac", counters.getOrElse("localbcc.g0_frac", 0.0) / math.max(1.0, counters.getOrElse("g0.count", 0.0)), "ratio")) ++
      refine ++ Seq(
      ("bcindex.pair_ms", tr.totalMs("bcindex.pair"), "ms"),
      ("bcindex.pair_misses", counters.getOrElse("bcindex.pair_misses", 0.0), "count"),
      ("l2p.call_ms", spanPer("l2p"), "ms"),
      ("l2p.alg3_calls", per("l2p.alg3_calls"), "count"),
      ("l2p.refine_ms", per("l2p.refine_ms"), "ms"),
      ("mbcc.rounds", per("mbcc.rounds"), "count"),
      ("mbcc.alg3_calls", per("mbcc.alg3_calls"), "count"),
      ("mbcc.alg7_ms", per("mbcc.alg7_ms"), "ms"),
      ("ctc.rounds", per("ctc.rounds"), "count"),
      ("psa.rounds", per("psa.rounds"), "count"),
      ("eval.check_ms", checkNanos / 1e6 / k, "ms"),
      ("jvm.gc_ms", gcMs.toDouble, "ms"),
      ("jvm.gc_count", gcCount.toDouble, "count"),
      ("trace.overhead_frac", (tracedMs - untracedMs) / untracedMs, "ratio"),
      ("trace.online_cover_frac", tr.coverFrac("online"), "ratio"),
      ("trace.lp_cover_frac", tr.coverFrac("lp"), "ratio"))
  }
}
