package repro.core

/** Algorithms 6-7: leader pair identification and incremental maintenance
  * of the leaders' butterfly degrees.
  *
  * A *leader* on a side is a vertex with a comfortably large butterfly
  * degree close to the query vertex; while the pair stays valid, LP-BCC
  * never re-runs the full butterfly count (Algorithm 3) and only patches the
  * two leaders' degrees per deletion (Algorithm 7, O(d^2)).
  */
object LeaderPair {

  /** Default search radius around the query vertex (paper rho). */
  val DefaultRho = 3

  /** Algorithm 6: find a leader on one side.
    *
    * Starts from the query vertex; otherwise binary-searches the butterfly
    * threshold `b_p` down from `b_max / 2` while widening the hop radius
    * `d <= rho` around the query. Falls back to the side's argmax butterfly
    * vertex if the search returns a vertex below `b` (guaranteeing a valid
    * leader whenever one exists).
    *
    * @param left    which side to search
    * @param distToQ distances to this side's query vertex (current graph)
    */
  def identify(
      e: BCCEngine,
      left: Boolean,
      distToQ: Array[Int],
      rho: Int = DefaultRho): Int = {
    val q = if (left) e.ql else e.qr
    def onSide(v: Int): Boolean =
      e.alive(v) && (if (left) e.isLeft(v) else e.isRight(v))

    val bMax = e.maxChi(left)
    var p = q
    var bp = bMax / 2.0
    var found = false
    if (e.chi(p) >= bp) found = true
    // chi is an integer, so thresholds below 1 add nothing; stopping there
    // also ends the search when b = 0 (halving would never drop below b)
    while (!found && bp >= math.max(e.params.b, 1)) {
      var d = 1
      while (!found && d <= rho) {
        var v = 0
        while (!found && v < e.g.n) {
          if (onSide(v) && distToQ(v) == d && e.chi(v) >= bp) { p = v; found = true }
          v += 1
        }
        d += 1
      }
      if (!found) bp /= 2
    }
    if (e.chi(p) < e.params.b) {
      // fall back to the side's argmax (valid whenever the BCC is valid)
      var best = p
      var v = 0
      while (v < e.g.n) {
        if (onSide(v) && e.chi(v) > e.chi(best)) best = v
        v += 1
      }
      p = best
    }
    p
  }

  /** Algorithm 7: subtract from leader `p`'s butterfly degree the
    * butterflies destroyed by deleting vertex `v`. Must be called while `v`
    * is still alive (adjacency current); mutates `e.chi(p)` only.
    */
  def updateOnDeletion(e: BCCEngine, p: Int, v: Int): Unit =
    e.chi(p) -= e.g.butterfliesLost(e.isLeft, e.isRight, e.alive, p, v)
}
