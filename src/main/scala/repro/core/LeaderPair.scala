package repro.core

/** Algorithms 6-7: leader pair identification and incremental maintenance
  * of the leaders' butterfly degrees.
  *
  * A *leader* on a side is a vertex with a comfortably large butterfly
  * degree close to the query vertex; while the pair stays valid, LP-BCC
  * never re-runs the full butterfly count (Algorithm 3) and only patches the
  * two leaders' degrees per deletion (Algorithm 7, O(d^2)). Over m labels
  * each label pair has its own leader per side.
  */
object LeaderPair {

  /** Default search radius around the query vertex (paper rho). */
  val DefaultRho = 3

  /** Algorithm 6: find a leader on side `s` (0 or 1) of label pair `p`.
    *
    * Starts from the side's query vertex; otherwise binary-searches the
    * butterfly threshold `b_p` down from `b_max / 2` while widening the hop
    * radius `d <= rho` around the query. Falls back to the side's argmax
    * butterfly vertex if the search returns a vertex below `b` (guaranteeing
    * a valid leader whenever one exists).
    *
    * @param distToQ distances to the side's query vertex (current graph)
    */
  def identify(
      e: BCCEngine,
      p: Int,
      s: Int,
      distToQ: Array[Int],
      rho: Int = DefaultRho): Int = {
    val grp = e.pairs(p).groups(s)
    val chi = e.pairs(p).chi
    def onSide(v: Int): Boolean = e.alive(v) && e.masks(grp)(v)

    val bMax = e.maxChi(p, s)
    var l = e.queries(grp)
    var bp = bMax / 2.0
    var found = chi(l) >= bp
    // chi is an integer, so thresholds below 1 add nothing; stopping there
    // also ends the search when b = 0 (halving would never drop below b)
    while (!found && bp >= math.max(e.b, 1)) {
      var d = 1
      while (!found && d <= rho) {
        var v = 0
        while (!found && v < e.g.n) {
          if (onSide(v) && distToQ(v) == d && chi(v) >= bp) { l = v; found = true }
          v += 1
        }
        d += 1
      }
      if (!found) bp /= 2
    }
    if (chi(l) < e.b) {
      // fall back to the side's argmax (valid whenever the pair is valid)
      var best = l
      var v = 0
      while (v < e.g.n) {
        if (onSide(v) && chi(v) > chi(best)) best = v
        v += 1
      }
      l = best
    }
    l
  }

  /** Algorithm 7: subtract from `leader`'s butterfly degree in pair `p` the
    * butterflies destroyed by deleting vertex `v`. Must be called while `v`
    * is still alive (adjacency current); mutates `e.pairs(p).chi(leader)` only.
    */
  def updateOnDeletion(e: BCCEngine, p: Int, leader: Int, v: Int): Unit = {
    val groups = e.pairs(p).groups
    e.pairs(p).chi(leader) -= e.g.butterfliesLost(e.masks(groups(0)), e.masks(groups(1)), e.alive, leader, v)
  }
}
