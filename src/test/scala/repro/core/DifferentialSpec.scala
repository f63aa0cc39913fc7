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
    val r = SuperstepEngine.run(adj, p, mode, trace = true)
    (r.trace, r.metrics, r.vertices)
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

  /** Runs `f` on fixed-seed generated graphs, ids negative and above 2^31
    * included, and returns its results: six sparse graphs (n ≤ 24, up to 4n
    * edge draws), and two denser ones (30 ≤ n ≤ 40, 3n to 5n draws), on
    * which SC's main loop leaves messages out.
    */
  protected def forGenerated[A](f: Seq[(Long, Long)] => A): Seq[A] = {
    def graphs(ns: Gen[Int], draws: Int => Gen[Int]) = for {
      n <- ns
      m <- draws(n)
      offset <- Gen.oneOf(0L, -12L, 1L << 32)
      ends = Gen.choose(0L, n - 1L).map(_ + offset)
      edges <- Gen.listOfN(m, Gen.zip(ends, ends))
    } yield edges.filter { case (u, v) => u != v }.distinct
    val results = Vector.newBuilder[A]
    for ((gen, count, seed) <- Seq(
        (graphs(Gen.choose(2, 24), n => Gen.choose(1, 4 * n)), 6, 14L),
        (graphs(Gen.choose(30, 40), n => Gen.choose(3 * n, 5 * n)), 2, 15L))) {
      // A fixed seed, so a failure reproduces.
      val params = Check.Parameters.default.withMinSuccessfulTests(count).withInitialSeed(Seed(seed))
      val res = Check.check(params, Prop.forAllNoShrink(gen) { edges => results += f(edges); true })
      assert(res.passed, Pretty.pretty(res))
    }
    results.result()
  }
}
