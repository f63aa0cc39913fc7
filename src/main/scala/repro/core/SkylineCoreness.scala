package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.storage.StorageLevel

import repro.engine._

/** The skyline-coreness distributed algorithm (Sec. 5, Algs. 5–6).
  *
  * Every vertex iterates its n-order D-index — the skyline of (k,l) pairs
  * supported by >= k in-neighbors and >= l out-neighbors whose own D-indexes
  * dominate-or-equal (k,l) — until a global fixpoint, which Theorem 5.1
  * shows equals SC(v). All three optimisations of Sec. 5.3 are implemented:
  *
  *  - Opt-1/2 (in `DIndex`): candidate (k,l)'s are capped by kmax =
  *    H({max-k of each in-neighbor's D-index}) and lmax = H({max-l per
  *    out-neighbor}); the `lmin` staircase prunes dominated candidates;
  *    per-neighbor dominance is answered in O(log s) by the `SkylineSet`
  *    staircase, and each candidate is checked once (not once per
  *    neighbor-pair combination).
  *  - Opt-3: D^(0)(v) = {(kmax(v), lmax(v))} via two directional H-index
  *    fixpoints (Alg. 2 run twice) instead of the raw degrees.
  */
object SkylineCoreness {

  /** Context: adjacency plus the tight initial pair (Opt-3). */
  final case class SCCtx(adj: VertexAdj, k0: Int, l0: Int)

  /** Alg. 5: each vertex's value is its D-index as a `SkylineSet`, so a
    * neighbour's staircase is built once, by the neighbour. Every neighbour
    * both feeds and reads a vertex. Round 0 sends each initial value to every
    * neighbour; from round 1 on, a new value S goes to a neighbour u only if
    * S fails to dominate-or-equal some pair of the last value u sent, which
    * the sender's own table holds. Otherwise S agrees with what u already
    * holds on every pair u can still output, so every round's values stay
    * those of Alg. 5 (DESIGN.md §7). One merge walk over the sorted `inN`
    * and `outN` finds each neighbour's slot and visits a 2-cycle neighbour
    * once.
    */
  private object SCProgram extends NeighbourFixpoint[SCCtx, SkylineSet] {
    def inN(c: SCCtx): Array[Long] = c.adj.inN
    def outN(c: SCCtx): Array[Long] = c.adj.outN
    def receivers(c: SCCtx, s: NeighbourFixpoint.State[SkylineSet], round: Int): Array[Long] = {
      val (in, out) = (c.adj.inN, c.adj.outN)
      val b = Array.newBuilder[Long]
      def visit(u: Long, heard: SkylineSet): Unit = if (round == 0 || !s.value.dominatesOrEq(heard)) b += u
      var i = 0
      var j = 0
      while (i < in.length || j < out.length) {
        if (j == out.length || (i < in.length && in(i) < out(j))) { visit(in(i), s.in(i)); i += 1 }
        else if (i == in.length || out(j) < in(i)) { visit(out(j), s.out(j)); j += 1 }
        else { visit(in(i), s.in(i)); i += 1; j += 1 }
      }
      b.result()
    }
    def init(vid: Long, c: SCCtx): SkylineSet = SkylineSet(Vector((c.k0, c.l0)))

    def update(c: SCCtx, d: SkylineSet, in: Array[SkylineSet], out: Array[SkylineSet]): Option[SkylineSet] = {
      val d2 = DIndex(in, out)
      if (d2 == d.pairs) None else Some(SkylineSet(d2))
    }
  }

  final case class SCRun(
      /** vid -> SC(v), sorted by k descending (staircase order) */
      skyline: RDD[(Long, Vector[(Int, Int)])],
      initIn: EngineMetrics,
      initOut: EngineMetrics,
      main: EngineMetrics,
      /** The main loop's values after each round; empty when untraced. */
      trace: Vector[Map[Long, Vector[(Int, Int)]]]
  ) {
    /** Rounds of the D-index iteration proper (the paper's SC-V/SC-B rows
      * in Table 4 count the core iteration, not the Alg.-2 initialisation).
      */
    def rounds: Int = main.rounds
    def totalRounds: Int = initIn.rounds + initOut.rounds + main.rounds
    def totalMessages: Long = initIn.totalMessages + initOut.totalMessages + main.totalMessages
  }

  /** Opt-3's tight initialisation: kmax(v) and lmax(v) by Alg. 2 twice, as
    * each vertex's SC context, with the in-run's and the out-run's metrics.
    * The in-run's messages carry each sender's out-degree, so the out-run
    * sends a value only to the in-neighbours it can still lower. Each run
    * starts from the previous one's vertices, which keep the mode's
    * partitioner, so neither the second run nor the join shuffles.
    */
  def corenesses(
      g: DirectedGraph,
      mode: EngineMode,
      maxRounds: Int = 5000
  ): (RDD[(Long, SCCtx)], EngineMetrics, EngineMetrics) = {
    val rIn  = SuperstepEngine.run(g.adjacency(), HIndexProgram.In, mode, maxRounds)
    val outCtx = rIn.vertices.mapValues { case (a, s) => (a, s.in.map(_._2)) }
    val rOut = SuperstepEngine.run(outCtx, HIndexProgram.Out, mode, maxRounds)
    val ctx = rOut.vertices.join(rIn.values).mapValues { case (((a, _), out), (k0, _)) => SCCtx(a, k0, out.value) }
    (ctx, rIn.metrics, rOut.metrics)
  }

  /** Run the full SC decomposition. `mode` selects SC-V vs SC-B; a `trace`d
    * run also returns the main loop's values after each round.
    */
  def run(
      g: DirectedGraph,
      mode: EngineMode,
      maxRounds: Int = 5000,
      trace: Boolean = false
  ): SCRun = {
    val (ctx, initIn, initOut) = corenesses(g, mode, maxRounds)
    val main = SuperstepEngine.run(ctx, SCProgram, mode, maxRounds, trace)
    val sky = main.values.mapValues(_.pairs).persist(StorageLevel.MEMORY_AND_DISK)
    sky.count()
    SCRun(sky, initIn, initOut, main.metrics, main.trace.map(_.view.mapValues(_.pairs).toMap))
  }
}
