package repro.graphgen

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.engine.DirectedGraph

/** Synthetic directed-graph generators (DataFrame API).
  *
  * All generators are deterministic in (parameters, seed): `spark.range`
  * uses a fixed partition count so `rand(seed)` draws are stable across
  * machines, and `DirectedGraph.fromEdges` dedups and drops self-loops.
  * Target edge counts are approximate (duplicates removed); Table 3 reports
  * the measured sizes.
  */
object GraphGen {

  private val GenPartitions = 16

  /** Heavy-tailed rank in [1, n]: rank density ∝ r^(−β) with β ∈ (0,1)
    * (inverse-CDF of the standard "weight ∝ rank^(−β)" attachment model).
    * The induced degree distribution has a power-law tail with exponent
    * 1 + 1/β; larger β = heavier tail. Unlike a raw zipf draw this keeps
    * enough endpoint diversity to survive edge deduplication.
    */
  private def zipfCol(n: Long, beta: Double, seed: Long) = {
    require(beta > 0 && beta < 1, s"beta must be in (0,1), got $beta")
    least(
      lit(n),
      greatest(lit(1L), ceil(pow(rand(seed), 1.0 / (1.0 - beta)) * n).cast("long"))
    )
  }

  /** Hash-permute a rank to a vertex id in [0, n): hubs land on arbitrary
    * ids rather than always id 1, decorrelating src and dst hubs.
    */
  private def permute(col: org.apache.spark.sql.Column, n: Long, salt: Int) =
    pmod(hash(col.cast("long"), lit(salt)), lit(n)).cast("long")

  /** Power-law digraph: out-endpoint ranks drawn with tail weight
    * `alphaOut`, in-endpoint with `alphaIn` (both in (0,1); larger =
    * heavier tail = bigger hubs); ~`nEdges` distinct non-loop edges over
    * up to `nVertices` ids.
    */
  def powerLaw(
      spark: SparkSession,
      nVertices: Long,
      nEdges: Long,
      alphaOut: Double,
      alphaIn: Double,
      seed: Long
  ): DirectedGraph = {
    val draws = (nEdges * 1.4).toLong
    val df = spark
      .range(0, draws, 1, GenPartitions)
      .select(
        permute(zipfCol(nVertices, alphaOut, seed), nVertices, 17) as "src",
        permute(zipfCol(nVertices, alphaIn, seed + 1), nVertices, 23) as "dst"
      )
    DirectedGraph.fromEdges(df)
  }

  /** Citation-style graph: mostly a DAG (edges point from newer to older
    * ids, preferentially to "popular" older papers) plus a `backFrac`
    * sliver of back edges, so the maximal cores stay tiny (the paper's CT
    * has kmax = lmax = 1).
    */
  def citationDag(
      spark: SparkSession,
      nVertices: Long,
      nEdges: Long,
      backFrac: Double = 0.0005,
      seed: Long = 7
  ): DirectedGraph = {
    val draws = (nEdges * 1.3).toLong
    val df = spark
      .range(0, draws, 1, GenPartitions)
      .select(
        (rand(seed) * nVertices).cast("long") as "a",
        zipfCol(nVertices, 0.6, seed + 1).cast("long") as "rank",
        rand(seed + 2) as "flip"
      )
      // cite an older (smaller-id) paper, rank-skewed below the citing id
      .select(col("a"), pmod(col("rank"), greatest(col("a"), lit(1L))) as "b", col("flip"))
      .select(
        when(col("flip") < backFrac, col("b")).otherwise(col("a")) as "src",
        when(col("flip") < backFrac, col("a")).otherwise(col("b")) as "dst"
      )
    DirectedGraph.fromEdges(df)
  }

  /** A planted dense community on vertex ids [0, coreV): ~coreE edges with
    * uniform in-endpoints (so the community's min in-degree — and hence its
    * in-coreness — is ≈ coreE/coreV). `symmetric = true` also draws the out
    * side uniformly, giving kmax ≈ lmax (social/email-style cores);
    * `symmetric = false` skews the out side so few members emit most edges,
    * giving kmax ≫ lmax (web-crawl-style cores, paper Table 3's UK/IT/HW).
    * Real-graph corenesses come from such cores, not from raw degree skew.
    */
  def plantedCore(spark: SparkSession, coreV: Long, coreE: Long, symmetric: Boolean, seed: Long): DataFrame = {
    val draws = (coreE * 1.35).toLong
    val srcCol =
      if (symmetric) (rand(seed + 100) * coreV).cast("long")
      else (zipfCol(coreV, 0.75, seed + 100) - 1).cast("long")
    spark
      .range(0, draws, 1, GenPartitions)
      .select(srcCol as "src", (rand(seed + 101) * coreV).cast("long") as "dst")
  }

  /** Deterministic random edge list for local oracles and property tests. */
  def randomLocalEdges(n: Int, m: Int, seed: Long): Seq[(Long, Long)] = {
    val rng = new scala.util.Random(seed)
    val set = scala.collection.mutable.LinkedHashSet.empty[(Long, Long)]
    var attempts = 0
    while (set.size < m && attempts < m * 20) {
      val u = rng.nextInt(n).toLong
      val v = rng.nextInt(n).toLong
      if (u != v) set += ((u, v))
      attempts += 1
    }
    set.toSeq
  }
}
