package repro.core

import scala.reflect.ClassTag

import org.apache.spark.rdd.RDD
import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty

import repro.SparkSpec
import repro.engine._

/** What the differential specs share: a program's per-round trajectory, the
  * modes every check runs in, fixed degenerate graphs and fixed-seed
  * generated ones.
  */
trait DifferentialSpec extends SparkSpec {

  /** Each round's values, round 0's initial values first, the metrics and
    * the final states.
    */
  protected def trajectory[C: ClassTag, V: ClassTag](adj: RDD[(Long, C)], p: NeighbourFixpoint[C, V], mode: EngineMode) = {
    val snaps = Vector.newBuilder[Map[Long, V]]
    val r = SuperstepEngine.run(adj, p, mode, onRoundEnd = Some((vs: RDD[(Long, V)]) => { snaps += vs.collect().toMap; () }))
    (snaps.result(), r.metrics, r.vertices)
  }

  /** V mode, and HASH, FENNEL and METIS-like blocks over `edges`. */
  protected def modes(edges: Seq[(Long, Long)]): Seq[(String, EngineMode)] =
    ("V", VertexCentric(3)) +:
      Seq(Partitioners.hash(3), Partitioners.fennel(edges, 3), Partitioners.metisLike(edges, 3))
        .map(part => (part.name, BlockCentric(part.assign, part.numBlocks)))

  /** The empty graph, a single edge, 2-cycles, stars, a clique, a DAG and
    * negative ids.
    */
  protected val degenerate: Seq[Seq[(Long, Long)]] = {
    val clique = for (u <- 0L until 5L; v <- 0L until 5L if u != v) yield (u, v)
    val dag = for (u <- 0L until 6L; v <- u + 1 until 6L if (u + v) % 3 != 0) yield (u, v)
    Seq(
      Seq.empty,
      Seq((1L, 2L)),
      Seq((1L, 2L), (2L, 1L)),
      (1L to 6L).map(v => (v, 0L)), // in-star
      (1L to 6L).map(v => (0L, v)), // out-star
      clique,
      dag,
      // negative ids: a triangle with two 2-cycles, and a tail into it
      Seq((-3L, -2L), (-2L, -3L), (-2L, -1L), (-1L, -2L), (-1L, -3L), (-7L, -3L))
    )
  }

  /** Runs `f` on generated graphs, ids negative and above 2^31 included. */
  protected def forGenerated(f: Seq[(Long, Long)] => Unit): Unit = {
    val graphs = for {
      n <- Gen.choose(2, 24)
      m <- Gen.choose(1, 4 * n)
      offset <- Gen.oneOf(0L, -12L, 1L << 32)
      ends = Gen.choose(0L, n - 1L).map(_ + offset)
      edges <- Gen.listOfN(m, Gen.zip(ends, ends))
    } yield edges.filter { case (u, v) => u != v }.distinct
    // A fixed seed, so a failure reproduces.
    val params = Check.Parameters.default.withMinSuccessfulTests(6).withInitialSeed(Seed(14L))
    val res = Check.check(params, Prop.forAllNoShrink(graphs) { edges => f(edges); true })
    assert(res.passed, Pretty.pretty(res))
  }
}
