package repro.graph

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import scala.util.Random

/** ScalaCheck generators of small labeled graphs for the butterfly property
  * tests, and a runner that fails a ScalaTest test on a falsified property.
  *
  * Labels are "L0".."L3"; the butterfly masks are usually L0 (left) and L1
  * (right), so any L2/L3 vertices sit outside both masks.
  */
object GraphGens {

  /** Random graph on `labels` labels, optionally with a hub shape planted:
    * `hub` joins one L0 vertex to every L1 vertex, `biclique` joins a random
    * set of L0 vertices to a random set of L1 vertices (a K(a,b)).
    * `sizes` and `density` draw the vertex count and the edge probability.
    */
  def graphOn(
      labels: Gen[Int],
      sizes: Gen[Int] = Gen.choose(2, 24),
      density: Gen[Double] = Gen.choose(0.05, 0.6)): Gen[LocalGraph] = for {
    n <- sizes
    k <- labels
    p <- density
    shape <- Gen.oneOf("random", "hub", "biclique")
    seed <- Gen.long
  } yield {
    val rnd = new Random(seed)
    val lab = Array.fill(n)(rnd.nextInt(k))
    val edges = scala.collection.mutable.ArrayBuffer[(Long, Long)]()
    for (u <- 0 until n; v <- u + 1 until n if rnd.nextDouble() < p) edges += ((u.toLong, v.toLong))
    val ls = (0 until n).filter(lab(_) == 0)
    val rs = (0 until n).filter(lab(_) == 1)
    shape match {
      case "hub" => for (h <- ls.headOption; r <- rs) edges += ((h.toLong, r.toLong))
      case "biclique" =>
        for (l <- ls if rnd.nextBoolean(); r <- rs if rnd.nextDouble() < 0.7)
          edges += ((l.toLong, r.toLong))
      case _ =>
    }
    LocalGraph((0 until n).map(v => (v.toLong, s"L${lab(v)}")), edges.toSeq)
  }

  /** Random graph of 12-40 vertices on three labels with a biclique planted
    * between every pair of labels: about 30% of one label's vertices joined
    * to about 30% of the other's. [[graphOn]] plants only between L0 and L1,
    * so m-label searches there seldom refine for more than one round; larger
    * bicliques put every vertex near every query, with the same effect.
    */
  val graphAcrossPairs: Gen[LocalGraph] = for {
    n <- Gen.choose(12, 40)
    p <- Gen.choose(0.1, 0.4)
    seed <- Gen.long
  } yield {
    val k = 3
    val rnd = new Random(seed)
    val lab = Array.fill(n)(rnd.nextInt(k))
    val edges = scala.collection.mutable.ArrayBuffer[(Long, Long)]()
    for (u <- 0 until n; v <- u + 1 until n if rnd.nextDouble() < p) edges += ((u.toLong, v.toLong))
    for (a <- 0 until k; b <- a + 1 until k) {
      val as = (0 until n).filter(v => lab(v) == a && rnd.nextDouble() < 0.3)
      val bs = (0 until n).filter(v => lab(v) == b && rnd.nextDouble() < 0.3)
      for (l <- as; r <- bs) edges += ((math.min(l, r).toLong, math.max(l, r).toLong))
    }
    LocalGraph((0 until n).map(v => (v.toLong, s"L${lab(v)}")), edges.toSeq)
  }

  /** [[graphOn]] with 2-4 labels. */
  val labeledGraph: Gen[LocalGraph] = graphOn(Gen.choose(2, 4))

  /** An alive mask over `n` vertices (about 80% alive), or null for all. */
  def aliveMask(n: Int): Gen[Array[Boolean]] =
    Gen.frequency(
      1 -> Gen.const(null),
      3 -> Gen.listOfN(n, Gen.frequency(4 -> true, 1 -> false)).map(_.toArray))

  /** Mask of the vertices carrying `label`. */
  def labelMask(g: LocalGraph, label: String): Array[Boolean] = g.labels.map(_ == label)

  /** Check `prop` on `cases` cases from a fixed seed; fails with the counterexample. */
  def check(prop: Prop, seed: Long = 7L, cases: Int = 300): Unit = {
    val params = Test.Parameters.default.withMinSuccessfulTests(cases).withInitialSeed(Seed(seed))
    val res = Test.check(params, prop)
    assert(res.passed, s"property failed: ${res.status}")
  }
}
