package repro.core

import repro.engine._

/** Alg. 2 in both directions: `HIndexProgram.In` tells each vertex its
  * in-neighbours' out-degrees, and `HIndexProgram.Out` then sends a value h
  * only to the in-neighbours with more than h out-neighbours. Property: on
  * every graph and in every mode, the in-run matches Alg. 2 as printed
  * (`plain(in = true)`) round by round, values and messages alike, and learns
  * the true out-degrees; the out-run's values equal those of
  * `plain(in = false)`, which sends every value to every reader, in every
  * round, and it takes no more rounds and sends no more messages in any
  * round. `SkylineCoreness.corenesses`, which chains the two runs, equals
  * `Peeling`'s in- and out-corenesses.
  */
class HIndexReceiversSpec extends DifferentialSpec {

  /** Alg. 2 as printed: the in-H-index (`in`) or the out-H-index, each value
    * sent to every reader. The reference both programs are checked against.
    */
  private def plain(in: Boolean): NeighbourFixpoint[VertexAdj, Int] =
    new NeighbourFixpoint[VertexAdj, Int] {
      def inN(a: VertexAdj): Array[Long] = if (in) a.inN else Array.emptyLongArray
      def outN(a: VertexAdj): Array[Long] = if (!in) a.outN else Array.emptyLongArray
      def receivers(a: VertexAdj, s: NeighbourFixpoint.State[Int], round: Int): Array[Long] = if (in) a.outN else a.inN
      def init(vid: Long, a: VertexAdj): Int = if (in) a.inDeg else a.outDeg

      def update(a: VertexAdj, value: Int, ins: Array[Int], outs: Array[Int]): Option[Int] = {
        val h = HIndex.hIndex(if (in) ins else outs)
        if (h < value) Some(h) else None
      }
    }

  /** Checks the programs against `plain` on `edges`, in every mode. */
  private def check(edges: Seq[(Long, Long)]): Unit = {
    val g = DirectedGraph.fromEdgeList(spark, edges, numPartitions = 2)
    val adj = g.adjacency().cache()
    val lg = g.toLocal
    val outDeg = lg.ids.zipWithIndex.map { case (v, i) => v -> lg.outDeg(i) }.toMap
    for ((name, mode) <- modes(edges)) {
      val label = s"$name on $edges"
      val (iv, im, ivs) = trajectory(adj, HIndexProgram.In, mode)
      val (kv, km, _) = trajectory(adj, plain(in = true), mode)
      assert(iv.map(_.map { case (v, (h, _)) => v -> h }) == kv, s"In/$label")
      assert(im == km, s"In/$label")
      val outCtx = ivs.mapValues { case (a, s) => (a, s.in.map(_._2)) }.cache()
      for ((v, (a, caps)) <- outCtx.collect())
        assert(caps.toSeq == a.inN.toSeq.map(outDeg), s"$label: v$v's in-neighbours' out-degrees")

      val (pv, pm, _) = trajectory(outCtx, HIndexProgram.Out, mode)
      val (uv, um, _) = trajectory(adj, plain(in = false), mode)
      assert(pm.rounds <= um.rounds, s"Out/$label")
      // The unpruned run may spend its extra rounds on mail that changes nothing.
      assert(uv == pv ++ Vector.fill(um.rounds - pm.rounds)(pv.last), s"Out/$label")
      for (r <- 0 to pm.rounds) {
        assert(pm.perRound(r).remote <= um.perRound(r).remote, s"Out/$label: round $r remote")
        assert(pm.perRound(r).local <= um.perRound(r).local, s"Out/$label: round $r local")
      }
      outCtx.unpersist()
    }
    adj.unpersist()
  }

  /** Checks `corenesses` against `Peeling` on `edges`, in every mode. */
  private def checkCorenesses(edges: Seq[(Long, Long)]): Unit = {
    val g = DirectedGraph.fromEdgeList(spark, edges, numPartitions = 2)
    val lg = g.toLocal
    val kmax = lg.ids.zip(Peeling.inCoreness(lg)).toMap
    val lmax = lg.ids.zip(Peeling.outCoreness(lg)).toMap
    for ((name, mode) <- modes(edges)) {
      val ctx = SkylineCoreness.corenesses(g, mode)._1.collect().toMap
      assert(ctx.view.mapValues(_.k0).toMap == kmax, s"kmax/$name on $edges")
      assert(ctx.view.mapValues(_.l0).toMap == lmax, s"lmax/$name on $edges")
    }
  }

  test("degenerate graphs: empty, single edge, 2-cycle, stars, clique and DAG") {
    degenerate.foreach(check)
  }

  test("generated graphs, ids negative and above 2^31 included") {
    forGenerated(check)
  }

  test("corenesses equal Peeling's in- and out-corenesses on the degenerate and generated graphs") {
    degenerate.foreach(checkCorenesses)
    forGenerated(checkCorenesses)
  }
}
