package qbench

import scala.util.Random
import repro.data.{GraphGen, QueryGen}
import repro.data.GraphGen.{BaiduParams, Planted, SnapParams}
import repro.graph.LocalGraph

/** One benchmark query. `qs(0)` and `qs(1)` feed the 2-label methods
  * (Online, LP, L2P); every entry feeds mBCC, CTC and PSA. `truth2` is the
  * planted community restricted to the labels of `qs(0)` and `qs(1)`, the
  * ground truth the 2-label F1 is taken against.
  */
final case class Query(qs: IndexedSeq[Long], truth2: Set[Long])

/** A generated graph plus a seeded sampler of queries on it. */
final class Generated(val g: LocalGraph, sampler: (Int, Long) => IndexedSeq[Query]) {
  def queries(n: Int, seed: Long): IndexedSeq[Query] = sampler(n, seed)
}

/** A named benchmark input: a fixed generated graph and a fixed query set
  * (the dataset), visited in an order drawn from the run's seed. Nothing is
  * read from disk.
  *
  * @param m                labels per mBCC query
  * @param traceQueries     queries replayed by the traced run
  * @param queriesPerSecond queries an end-to-end run times per second of
  *                         `--seconds`, counting every pass: the rate of the
  *                         six-method set and its checks on a 4-core x86 VM,
  *                         so a run's timed loop takes about `--seconds`
  */
final case class Workload(name: String, m: Int, traceQueries: Int, queriesPerSecond: Int,
    generate: () => Generated) {

  /** Size of an end-to-end run's query set. It depends on `seconds` only,
    * never on the clock, so every run of the same arguments makes the same
    * calls and counts the same failures.
    */
  def timedQueries(seconds: Double): Int =
    math.max(Workloads.MinQueries, math.round(seconds * queriesPerSecond / Main.Passes).toInt)
}

object Workloads {

  /** Queries per end-to-end run at least, so each p95 has ten samples
    * beyond it.
    */
  val MinQueries = 200

  /** Seed of every workload's query set. Like the graph, the query set is
    * part of the dataset: `--seed` only shuffles the order a run visits it
    * in and draws the warm-up queries, so the set of calls, and with it
    * `attempted`, `failed` and the F1 means, is the same for every seed.
    */
  val QuerySeed = 20210L

  /** Queries generated for the untimed warm-up (it stops after 1.5 s). */
  val WarmupPool = 300

  /** Stratified query stream: each cycle visits every community once, in
    * an order shuffled from the seed, and `QueryGen` draws the query
    * vertices inside the community. A query set then covers the communities
    * evenly instead of by chance.
    */
  private def stratified[C](communities: Vector[C], n: Int, seed: Long)(draw: (C, Long) => Query): IndexedSeq[Query] = {
    val rnd = new Random(seed)
    Iterator.continually(rnd.shuffle(communities)).flatten.take(n).map(c => draw(c, rnd.nextLong())).toVector
  }

  private def twoLabel(p: Planted): Generated =
    new Generated(p.graph, (n, seed) =>
      stratified(p.communities, n, seed) { (c, s) =>
        val q = QueryGen.queries2(p.copy(communities = Vector(c)), 1, s).head
        Query(Vector(q.ql, q.qr), q.truth)
      })

  /** Refine-heavy: |G0| is most of |V| and each query takes about a dozen
    * deletion rounds. The repository's orkut-lite preset.
    */
  val orkut: Workload = Workload("orkut-lite", 2, 200, 20, () => twoLabel(GraphGen.snapLike("orkut-lite")))

  /** Many labels, tiny G0: per-query cost is the whole-graph scans of
    * Algorithm 2 and first-use BCIndex pair counts; refinement is bypassed.
    */
  val manyLabels: Workload = Workload("many-labels", 3, 400, 24, () => {
    val p = GraphGen.baiduLike(BaiduParams("many-labels", 400, 18, 40, 300, 2, 4, 8, 21L))
    val g = p.graph
    new Generated(g, (n, seed) =>
      stratified(p.communities.filter(_.groups.size >= 3), n, seed) { (c, s) =>
        val q = QueryGen.queriesM(p.copy(communities = Vector(c)), 3, 1, s).head
        val labs = Set(q.qs(0), q.qs(1)).map(id => g.labels(g.indexOf(id)))
        Query(q.qs.toIndexedSeq, q.truth.filter(id => labs(g.labels(g.indexOf(id)))))
      })
  })

  /** Hub-heavy: planted communities plus Chung-Lu noise, so every
    * Algorithm 3 recount is dominated by hub wedges.
    */
  val skewed: Workload = Workload("skewed", 2, 200, 14, () => twoLabel(Skewed.generate(Skewed.Default, 23L)))

  val all: Seq[Workload] = Seq(orkut, manyLabels, skewed)

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  /** Size and hub profile of a graph: |V|, |E|, max degree, sum of deg^2. */
  def profile(g: LocalGraph): Map[String, Long] = {
    var maxDeg = 0L
    var sumSq = 0L
    for (v <- 0 until g.n) {
      val d = g.degree(v).toLong
      maxDeg = math.max(maxDeg, d)
      sumSq += d * d
    }
    Map("vertices" -> g.n.toLong, "edges" -> g.edgeCount, "max_degree" -> maxDeg, "sum_deg_sq" -> sumSq)
  }
}

/** Planted 2-label communities (`GraphGen.planted2Label`, so F1 has a
  * truth) overlaid with Chung-Lu noise edges whose expected degrees follow
  * a power law. `GraphGen` has no heavy-tailed generator; this one exists
  * only as a benchmark input.
  */
object Skewed {

  /** @param communities planted communities (16-40 vertices each)
    * @param intraAvgDeg average intra-label degree inside a community
    * @param noiseRatio  Chung-Lu edges per planted edge
    * @param gamma       power-law exponent of the expected degrees
    */
  final case class Params(communities: Int, intraAvgDeg: Int, noiseRatio: Double, gamma: Double)

  val Default: Params = Params(communities = 120, intraAvgDeg = 6, noiseRatio = 0.5, gamma = 2.3)

  def generate(p: Params, seed: Long): Planted = {
    val base = GraphGen.planted2Label(
      SnapParams("skewed", p.communities, 16, 40, p.intraAvgDeg, 0.10, 0.0, seed))
    val g = base.graph
    val rnd = new Random(seed ^ 0x5eed5eedL)
    // weight of rank r is (r + 1)^(-1 / (gamma - 1)); ranks are a random
    // permutation, so hubs are not aligned with communities
    val rank = rnd.shuffle((0 until g.n).toVector)
    val cum = new Array[Double](g.n)
    var acc = 0.0
    for (v <- 0 until g.n) {
      acc += math.pow(rank(v) + 1.0, -1.0 / (p.gamma - 1.0))
      cum(v) = acc
    }
    def pick(): Int = {
      val i = java.util.Arrays.binarySearch(cum, rnd.nextDouble() * acc)
      math.min(g.n - 1, if (i >= 0) i else -i - 1)
    }
    val planted = g.edges.map { case (u, v) => (g.ids(u), g.ids(v)) }.toVector
    val noise = Vector.fill((planted.length * p.noiseRatio).toInt)((g.ids(pick()), g.ids(pick())))
    val vertices = g.ids.indices.map(v => (g.ids(v), g.labels(v)))
    Planted(LocalGraph(vertices, planted ++ noise), base.communities)
  }
}
