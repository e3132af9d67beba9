package repro.core

import repro.eval.Instrument
import repro.graph.LocalGraph

/** Algorithm 1, naive instantiation (the paper's Online-BCC): full BFS query
  * distances and a full butterfly recount on every deletion round.
  */
object OnlineBCC {

  /** Driver-side pipeline on an already-local graph. */
  def run(
      g: LocalGraph,
      qlId: Long,
      qrId: Long,
      params: BCCParams,
      inst: Instrument = new Instrument,
      computeDiameter: Boolean = true): Option[BCCResult] =
    inst.timeTotal {
      LocalBCC.findG0(g, qlId, qrId, params, inst)
        .flatMap(Refine.fromCandidate(_, params, Refine.Naive, inst, computeDiameter))
    }
}

/** Algorithm 1 with the fast strategies of Section 6 (the paper's LP-BCC):
  * Algorithm 5 incremental query distances + Algorithm 6/7 leader-pair
  * butterfly maintenance + bulk deletion.
  */
object LPBCC {

  def run(
      g: LocalGraph,
      qlId: Long,
      qrId: Long,
      params: BCCParams,
      inst: Instrument = new Instrument,
      computeDiameter: Boolean = true): Option[BCCResult] =
    inst.timeTotal {
      LocalBCC.findG0(g, qlId, qrId, params, inst)
        .flatMap(Refine.fromCandidate(_, params, Refine.FastLP, inst, computeDiameter))
    }
}
