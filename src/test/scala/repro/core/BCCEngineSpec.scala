package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.eval.Instrument
import repro.graph.LocalGraph

/** Unit tests for the mutable candidate state (cascade maintenance,
  * butterfly bookkeeping, invariants).
  */
class BCCEngineSpec extends AnyFunSuite {

  private def engineFor(g: LocalGraph, ql: Long, qr: Long, k1: Int, k2: Int): BCCEngine =
    new BCCEngine(g, BCCParams(k1, k2, 1), g.indexOf(ql), g.indexOf(qr), new Instrument)

  test("constructor rejects same-label queries") {
    val g = LocalGraph(Seq((0L, "A"), (1L, "A")), Seq((0L, 1L)))
    intercept[IllegalArgumentException] {
      new BCCEngine(g, BCCParams(1, 1, 1), 0, 1, new Instrument)
    }
  }

  test("intraDeg counts only same-label neighbors") {
    val g = LocalGraph(
      Seq((0L, "A"), (1L, "A"), (2L, "B")),
      Seq((0L, 1L), (0L, 2L)))
    val e = engineFor(g, 0L, 2L, 0, 0)
    assert(e.intraDeg(0) == 1 && e.intraDeg(1) == 1 && e.intraDeg(2) == 0)
  }

  test("deleteCascade peels below-k vertices transitively") {
    // A-side path 0-1-2 with k1=1: deleting 2 cascades nothing; deleting the
    // middle drops both ends below k
    val g = LocalGraph(
      Seq((0L, "A"), (1L, "A"), (2L, "A"), (3L, "B"), (4L, "B")),
      Seq((0L, 1L), (1L, 2L), (3L, 4L), (0L, 3L)))
    val e = engineFor(g, 0L, 3L, 1, 1)
    val removed = e.deleteCascade(Array(g.indexOf(2L)))
    assert(removed.isDefined)
    assert(removed.get.map(e.g.ids).toSet == Set(2L)) // 1 still has neighbor 0
    assert(e.alive.count(identity) == 4)
  }

  test("deleteCascade fails when the cascade reaches a query vertex") {
    val g = LocalGraph(
      Seq((0L, "A"), (1L, "A"), (2L, "B"), (3L, "B")),
      Seq((0L, 1L), (2L, 3L), (0L, 2L)))
    val e = engineFor(g, 0L, 2L, 1, 1)
    // deleting 1 drops q_l (vertex 0) below k1=1 -> cascade hits the query
    assert(e.deleteCascade(Array(g.indexOf(1L))).isEmpty)
  }

  test("onDelete hook sees the vertex while still alive") {
    val g = LocalGraph(
      Seq((0L, "A"), (1L, "A"), (2L, "B"), (3L, "B")),
      Seq((0L, 1L), (2L, 3L), (0L, 2L), (1L, 3L)))
    val e = engineFor(g, 0L, 2L, 0, 0)
    var sawAlive = false
    e.deleteCascade(Array(g.indexOf(3L)), v => sawAlive = e.alive(v))
    assert(sawAlive)
    assert(!e.alive(g.indexOf(3L)))
  }

  test("fullButterflyCount counts and respects deletions") {
    val g = LocalGraph(
      Seq((0L, "A"), (1L, "A"), (2L, "B"), (3L, "B")),
      Seq((0L, 2L), (0L, 3L), (1L, 2L), (1L, 3L)))
    val e = engineFor(g, 0L, 2L, 0, 0)
    e.fullButterflyCount()
    assert(e.pairs(0).chi.forall(_ == 1L))
    assert(e.inst.butterflyCountCalls == 1)
    e.deleteCascade(Array(g.indexOf(3L)))
    e.fullButterflyCount()
    assert(e.pairs(0).chi.forall(_ == 0L))
    assert(e.inst.butterflyCountCalls == 2)
  }

  test("maxChi is per side") {
    val g = LocalGraph(
      Seq((0L, "A"), (1L, "A"), (2L, "B"), (3L, "B"), (4L, "B")),
      for (l <- 0L to 1L; r <- 2L to 4L) yield (l, r))
    val e = engineFor(g, 0L, 2L, 0, 0)
    e.fullButterflyCount()
    assert(e.maxChi(0, 0) == 3)
    assert(e.maxChi(0, 1) == 2)
  }

  test("seedChi marks chi initialized without a count call") {
    val g = LocalGraph(
      Seq((0L, "A"), (1L, "B")), Seq((0L, 1L)))
    val e = engineFor(g, 0L, 1L, 0, 0)
    assert(!e.chiInitialized)
    e.seedChi(Array(5L, 7L))
    assert(e.chiInitialized && e.pairs(0).chi.toSeq == Seq(5L, 7L))
    assert(e.inst.butterflyCountCalls == 0)
  }

  test("leader updates see only alive cross neighbours") {
    // 0 and 1 share the cross neighbours 2 and 3 (one butterfly); the
    // intra-label edges 0-1 and 2-3 are not cross edges
    val g = LocalGraph(
      Seq((0L, "A"), (1L, "A"), (2L, "B"), (3L, "B")),
      Seq((0L, 1L), (2L, 3L), (0L, 2L), (0L, 3L), (1L, 2L), (1L, 3L)))
    val e = engineFor(g, 0L, 2L, 0, 0)
    val Array(left, right) = e.masks
    assert(g.butterfliesLost(left, right, e.alive, 0, 1) == 1L)
    assert(g.butterfliesLost(left, right, e.alive, 0, 2) == 1L)
    e.deleteCascade(Array(g.indexOf(3L)))
    assert(g.butterfliesLost(left, right, e.alive, 0, 1) == 0L)
    assert(g.butterfliesLost(left, right, e.alive, 0, 3) == 0L) // dead
  }

  test("aliveIds tracks deletions") {
    val g = LocalGraph(
      Seq((0L, "A"), (1L, "A"), (2L, "B")),
      Seq((0L, 1L), (0L, 2L)))
    val e = engineFor(g, 0L, 2L, 0, 0)
    e.deleteCascade(Array(g.indexOf(1L)))
    assert((0 until g.n).filter(e.alive).map(g.ids).toSet == Set(0L, 2L))
  }
}
