package repro.core

import repro.engine._
import repro.graphgen.{ExampleGraphs, GraphGen}

/** SC's main loop sends a new D-index only to the neighbours whose last
  * sent value it fails to dominate. Property: on every graph and in every
  * mode, its values equal those of Alg. 5 as printed, which sends each new
  * value to every neighbour from the same `corenesses` contexts, in every
  * round; it takes the same rounds and sends the same round-0 messages, and
  * no more messages in any later round.
  */
class SCPruningSpec extends DifferentialSpec {
  import SCPruningSpec.Plain

  /** Checks SC against `Plain` on `edges` in every mode; returns the
    * messages both sent over all modes, SC's first.
    */
  private def check(edges: Seq[(Long, Long)]): (Long, Long) = {
    val g = DirectedGraph.fromEdgeList(spark, edges, numPartitions = 2)
    modes(edges).map { case (name, mode) =>
      val label = s"$name on $edges"
      var tr = Vector.empty[Map[Long, Vector[(Int, Int)]]]
      val pm = SkylineCoreness.run(g, mode, traceSink = Some(t => tr = t)).main
      val (uv, um, _) = trajectory(SkylineCoreness.corenesses(g, mode)._1, Plain, mode)
      assert(tr == uv.map(_.view.mapValues(_.pairs).toMap), s"values/$label")
      assert(pm.rounds == um.rounds, s"rounds/$label")
      assert(pm.perRound(0) == um.perRound(0), s"round 0/$label")
      for (r <- 1 to pm.rounds) {
        assert(pm.perRound(r).remote <= um.perRound(r).remote, s"$label: round $r remote")
        assert(pm.perRound(r).local <= um.perRound(r).local, s"$label: round $r local")
      }
      (pm.totalMessages + pm.totalLocalMessages, um.totalMessages + um.totalLocalMessages)
    }.reduce((a, b) => (a._1 + b._1, a._2 + b._2))
  }

  test("degenerate graphs: empty, single edge, 2-cycles, stars, clique, DAG and negative ids") {
    degenerate.foreach(check)
  }

  test("generated graphs, ids negative and above 2^31 included") {
    forGenerated(edges => check(edges))
  }

  test("figure 2 and a denser random graph, where the rule leaves messages out") {
    // The property must not hold only because nothing is ever left out.
    for (edges <- Seq(ExampleGraphs.figure2Edges, GraphGen.randomLocalEdges(40, 200, 7))) {
      val (sc, plain) = check(edges)
      assert(sc < plain, s"SC sent $sc messages, Alg. 5 $plain, on $edges")
    }
  }
}

object SCPruningSpec {

  /** Alg. 5 as printed: each new D-index goes to every neighbour. */
  object Plain extends NeighbourFixpoint[SkylineCoreness.SCCtx, SkylineSet] {
    def inN(c: SkylineCoreness.SCCtx): Array[Long] = c.adj.inN
    def outN(c: SkylineCoreness.SCCtx): Array[Long] = c.adj.outN
    def receivers(c: SkylineCoreness.SCCtx): Array[Long] = c.adj.distinctNeighbors
    def init(vid: Long, c: SkylineCoreness.SCCtx): SkylineSet = SkylineSet(Vector((c.k0, c.l0)))
    def update(c: SkylineCoreness.SCCtx, d: SkylineSet, in: Array[SkylineSet], out: Array[SkylineSet]): Option[SkylineSet] = {
      val d2 = DIndex(in, out)
      if (d2 == d.pairs) None else Some(SkylineSet(d2))
    }
  }
}
