package repro.core

import scala.reflect.ClassTag

import org.apache.spark.rdd.RDD
import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty

import repro.SparkSpec
import repro.engine._

/** SC's initialisation: `HIndexProgram.InWithOutDeg` tells each vertex its
  * in-neighbours' out-degrees, and `HIndexProgram.OutPruned` then sends a
  * value h only to the in-neighbours with more than h out-neighbours.
  * Property: on every graph and in every mode, the in-run matches
  * `HIndexProgram(In)` round by round, values and messages alike, and learns
  * the true out-degrees; the pruned out-run's values equal those of
  * `HIndexProgram(Out)`, which sends every value to every reader, in every
  * round, and it takes no more rounds and sends no more messages in any
  * round.
  */
class HIndexReceiversSpec extends SparkSpec {
  import HIndexProgram.{In, Out}

  /** Each round's values, round 0's initial values first, the metrics and
    * the final states.
    */
  private def trajectory[C: ClassTag, V: ClassTag](adj: RDD[(Long, C)], p: NeighbourFixpoint[C, V], mode: EngineMode) = {
    val init = adj.map { case (v, a) => v -> p.init(v, a) }.collect().toMap
    val snaps = Vector.newBuilder[Map[Long, V]] += init
    val r = SuperstepEngine.run(adj, p, mode, onRoundEnd = Some((vs: RDD[(Long, V)]) => { snaps += vs.collect().toMap; () }))
    (snaps.result(), r.metrics, r.vertices)
  }

  /** Checks the property on `edges`, in V mode and under HASH, FENNEL and
    * METIS-like blocks.
    */
  private def check(edges: Seq[(Long, Long)]): Unit = {
    val g = DirectedGraph.fromEdgeList(spark, edges, numPartitions = 2)
    val adj = g.adjacency().cache()
    val lg = g.toLocal
    val outDeg = lg.ids.zipWithIndex.map { case (v, i) => v -> lg.outDeg(i) }.toMap
    val modes = ("V", VertexCentric(3)) +:
      Seq(Partitioners.hash(3), Partitioners.fennel(edges, 3), Partitioners.metisLike(edges, 3))
        .map(part => (part.name, BlockCentric(part.assign, part.numBlocks)))
    for ((name, mode) <- modes) {
      val label = s"$name on $edges"
      val (iv, im, ivs) = trajectory(adj, HIndexProgram.InWithOutDeg, mode)
      val (kv, km, _) = trajectory(adj, HIndexProgram(In), mode)
      assert(iv.map(_.map { case (v, (h, _)) => v -> h }) == kv, s"In/$label")
      assert(im == km, s"In/$label")
      val outCtx = ivs.mapValues { case (a, s) => (a, s.in.map(_._2)) }.cache()
      for ((v, (a, caps)) <- outCtx.collect())
        assert(caps.toSeq == a.inN.toSeq.map(outDeg), s"$label: v$v's in-neighbours' out-degrees")

      val (pv, pm, _) = trajectory(outCtx, HIndexProgram.OutPruned, mode)
      val (uv, um, _) = trajectory(adj, HIndexProgram(Out), mode)
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

  test("degenerate graphs: empty, single edge, 2-cycle, stars, clique and DAG") {
    val clique = for (u <- 0L until 5L; v <- 0L until 5L if u != v) yield (u, v)
    val dag = for (u <- 0L until 6L; v <- u + 1 until 6L if (u + v) % 3 != 0) yield (u, v)
    for (
      edges <- Seq(
        Seq.empty,
        Seq((1L, 2L)),
        Seq((1L, 2L), (2L, 1L)),
        (1L to 6L).map(v => (v, 0L)), // in-star
        (1L to 6L).map(v => (0L, v)), // out-star
        clique,
        dag
      )
    ) check(edges)
  }

  test("generated graphs, ids negative and above 2^31 included") {
    val graphs = for {
      n <- Gen.choose(2, 24)
      m <- Gen.choose(1, 4 * n)
      offset <- Gen.oneOf(0L, -12L, 1L << 32)
      ends = Gen.choose(0L, n - 1L).map(_ + offset)
      edges <- Gen.listOfN(m, Gen.zip(ends, ends))
    } yield edges.filter { case (u, v) => u != v }.distinct
    // A fixed seed, so a failure reproduces.
    val params = Check.Parameters.default.withMinSuccessfulTests(6).withInitialSeed(Seed(14L))
    val res = Check.check(params, Prop.forAllNoShrink(graphs) { edges => check(edges); true })
    assert(res.passed, Pretty.pretty(res))
  }
}
