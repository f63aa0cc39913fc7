package perfbench

import org.apache.spark.sql.SparkSession

import repro.engine.{BlockCentric, DirectedGraph, EngineMode, Partitioners, VertexCentric}
import repro.graphgen.Datasets

/** Deterministic counts a decomposition must reproduce exactly. */
final case class Counts(rounds: Int, messages: Long, phaseRounds: Seq[Int])

/** One named benchmark input: a `Datasets` stand-in, the algorithm (AC or
  * SC) and the engine mode. Every workload uses HASH over 8 blocks (B) or 8
  * hash partitions (V), as the paper's default 8-machine layout.
  *
  * `benchScale` shrinks the stand-in (|V|, |E| and the planted core alike)
  * so that several decompositions fit in one timed run; `full` size is the
  * stand-in exactly as `Datasets` defines it (one AC-V run on WV takes about
  * a minute on 4 cores). `pinned` holds the counts at this benchmark's
  * defining commit for the default generator seed, whatever the label seed;
  * a later change that moves them must explain why.
  */
final case class Workload(
    name: String,
    base: Datasets.Spec,
    skyline: Boolean,
    blockCentric: Boolean,
    benchScale: Double,
    pinned: Map[String, Counts]
) {
  val blocks = 8

  def spec(size: String, graphSeed: Long): Datasets.Spec = {
    val f = size match {
      case "full"  => 1.0
      case "bench" => benchScale
      case other   => sys.error(s"unknown size $other (expected bench or full)")
    }
    def sc(x: Long): Long = math.max(1L, math.round(x * f))
    base.copy(nV = sc(base.nV), nE = sc(base.nE), coreV = sc(base.coreV), coreE = sc(base.coreE), seed = graphSeed)
  }

  def mode: EngineMode =
    if (blockCentric) BlockCentric(Partitioners.hash(blocks).assign, blocks) else VertexCentric(blocks)

  def algo: String = (if (skyline) "SC" else "AC") + (if (blockCentric) "-B" else "-V")
}

object Workloads {

  // Full-size counts are Table 4 / Exp-3 at this commit (default Datasets
  // seeds); bench-size counts were measured when the benchmark was defined.
  val all: Seq[Workload] = Seq(
    // Many rounds on a tiny graph: fixed per-round engine cost dominates,
    // and Phases II/III send whole kmax+1 arrays.
    Workload("acv-wv", Datasets.WV, skyline = false, blockCentric = false, benchScale = 0.25,
      pinned = Map(
        "full"  -> Counts(56, 371529L, Seq(15, 15, 26)),
        "bench" -> Counts(38, 62903L, Seq(12, 14, 12)))),
    // Sparse and block-centric: the stepPartition local loop and the D-index
    // with small skyline messages; bypasses every AC-only lever.
    Workload("scb-ee", Datasets.EE, skyline = true, blockCentric = true, benchScale = 0.2,
      pinned = Map(
        "full"  -> Counts(33, 304761L, Seq(26, 7)),
        "bench" -> Counts(17, 53583L, Seq(15, 2)))),
    // Per-round cost scales with message and state volume: serialization,
    // caching and heap levers show here first.
    Workload("acb-am", Datasets.AM, skyline = false, blockCentric = true, benchScale = 0.05,
      pinned = Map(
        "full"  -> Counts(49, 1888419L, Seq(13, 24, 12)),
        "bench" -> Counts(26, 77511L, Seq(11, 11, 4))))
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(sys.error(s"unknown workload $name (known: ${all.map(_.name).mkString(", ")})"))

  /** The stand-in for `spec`, its vertex ids permuted by `labelSeed`
    * within each residue class mod `blocks`. Every vertex keeps its HASH
    * block and its Spark hash partition, so all seeds decompose the same
    * partitioned graph: rounds and messages do not depend on the seed, while
    * record order, sort order and hash-table layout do. (A free permutation
    * moves vertices between blocks and changes block-centric rounds by up to
    * a tenth.) Seed 0 keeps the ids `Datasets` generates.
    */
  def generate(spark: SparkSession, spec: Datasets.Spec, labelSeed: Long, blocks: Int): DirectedGraph = {
    val g = spec.generate(spark)
    if (labelSeed == 0) g
    else {
      import spark.implicits._
      // The generators draw every id from [0, nV).
      val rnd = new scala.util.Random(labelSeed)
      val relabel = new Array[Long](spec.nV.toInt)
      for (r <- 0 until blocks) {
        val cls = (r.toLong until spec.nV by blocks.toLong).toVector
        cls.zip(rnd.shuffle(cls)).foreach { case (from, to) => relabel(from.toInt) = to }
      }
      val edges = g.edges.as[(Long, Long)].rdd.map { case (s, d) => (relabel(s.toInt), relabel(d.toInt)) }
      DirectedGraph.fromEdges(edges.toDF("src", "dst"))
    }
  }
}
