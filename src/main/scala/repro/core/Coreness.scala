package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}

/** Converting decomposition results between representations and
  * materialising individual (k,l)-cores from them — Sec. 4.1/5.1: the
  * decomposition is *equivalent* to knowing every Φ(v) or every SC(v).
  */
object Coreness {

  /** Members of the (k,l)-core given anchored corenesses Φ:
    * v is in the core iff kmax(v) >= k and lmax(k,v) >= l.
    */
  def coreFromAnchored(anchored: Map[Long, Array[Int]], k: Int, l: Int): Set[Long] =
    anchored.iterator.collect { case (v, arr) if arr.length > k && arr(k) >= l => v }.toSet

  /** Members of the (k,l)-core given skyline corenesses SC: v is in the
    * core iff some skyline pair dominates-or-equals (k,l).
    */
  def coreFromSkyline(sky: Map[Long, Vector[(Int, Int)]], k: Int, l: Int): Set[Long] =
    sky.iterator.collect { case (v, pairs) if SkylineSet(pairs).dominatesOrEq(k, l) => v }.toSet

  /** Anchored corenesses as (vid, k, l) rows — for SQL/oracle validation. */
  def anchoredToDF(spark: SparkSession, anchored: RDD[(Long, Array[Int])]): DataFrame = {
    import spark.implicits._
    anchored
      .flatMap { case (v, arr) => arr.iterator.zipWithIndex.map { case (l, k) => (v, k, l) } }
      .toDF("vid", "k", "l")
  }

  /** Skyline corenesses as (vid, k, l) rows. */
  def skylineToDF(spark: SparkSession, sky: RDD[(Long, Vector[(Int, Int)])]): DataFrame = {
    import spark.implicits._
    sky.flatMap { case (v, pairs) => pairs.iterator.map { case (k, l) => (v, k, l) } }.toDF("vid", "k", "l")
  }

  /** The skyline of an anchored-coreness array (Φ(v) -> SC(v)). */
  def skylineOfAnchored(arr: Array[Int]): Vector[(Int, Int)] =
    Dominance.skyline(arr.zipWithIndex.map { case (l, k) => (k, l) })
}
