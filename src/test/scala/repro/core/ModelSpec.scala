package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.LocalGraph

/** The Def. 4 validator must catch each violation class individually. */
class ModelSpec extends AnyFunSuite {

  private val g = PaperGraphs.figure1
  private val ql = PaperGraphs.Fig1Ids.ql
  private val qr = PaperGraphs.Fig1Ids.qr
  private val good = PaperGraphs.figure2Community
  private val p = BCCParams(4, 3, 1)

  test("BCCParams rejects a negative k or b; all zeros are valid") {
    for (bad <- Seq((-1, 0, 0), (0, -1, 0), (0, 0, -1)))
      intercept[IllegalArgumentException](BCCParams(bad._1, bad._2, bad._3))
    assert(BCCParams(0, 0, 0).b == 0)
  }

  test("the published community validates cleanly") {
    assert(Model.violations(g, good, ql, qr, p).isEmpty)
  }

  test("missing query vertex is reported") {
    val v = Model.violations(g, good - ql, ql, qr, p)
    assert(v.exists(_.contains("missing query")))
  }

  test("extra label is reported") {
    val v = Model.violations(g, good + PaperGraphs.Fig1Ids.z1, ql, qr, p)
    assert(v.exists(_.contains("extra labels")))
  }

  test("core violation is reported after removing a core member") {
    val v = Model.violations(g, good - PaperGraphs.Fig1Ids.v(0), ql, qr, p)
    assert(v.exists(_.contains("intra-label degree")))
  }

  test("butterfly violation is reported with a higher b") {
    val v = Model.violations(g, good, ql, qr, BCCParams(4, 3, 2))
    assert(v.exists(_.contains("leader")))
  }

  test("disconnection is reported") {
    // two cliques with different labels, no cross edges, b = 0 sidesteps the
    // butterfly check so only connectivity can fail
    val gg = LocalGraph(
      (0L to 5L).map(i => (i, if (i < 3) "A" else "B")),
      Seq((0L, 1L), (1L, 2L), (0L, 2L), (3L, 4L), (4L, 5L), (3L, 5L)))
    val v = Model.violations(gg, (0L to 5L).toSet, 0L, 3L, BCCParams(2, 2, 0))
    assert(v.exists(_.contains("not connected")))
  }

  test("same-label queries are reported") {
    val v = Model.violations(g, good, ql, PaperGraphs.Fig1Ids.v(0), p)
    assert(v.exists(_.contains("share a label")))
  }

  test("isValid is the empty-violations predicate") {
    assert(Model.isValid(g, good, ql, qr, p))
    assert(!Model.isValid(g, good - ql, ql, qr, p))
  }
}
