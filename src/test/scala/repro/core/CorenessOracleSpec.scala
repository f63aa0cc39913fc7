package repro.core

import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec}
import repro.engine.{DirectedGraph, VertexCentric}
import repro.graphgen.{ExampleGraphs => EG, GraphGen}

/** SQL-level validation of decomposition results through the DuckDB oracle:
  * the Def.-3.1 degree constraints and the coreness-distribution aggregates
  * are computed by Spark SQL and independently by DuckDB over the same
  * exported tables, and must agree row-for-row.
  */
class CorenessOracleSpec extends SparkSpec {
  import spark.implicits._

  private lazy val g = DirectedGraph.fromEdgeList(spark, GraphGen.randomLocalEdges(40, 220, 77))
  private lazy val ac = AnchoredCoreness.run(g, VertexCentric(3))
  private lazy val anchoredDF = Coreness.anchoredToDF(spark, ac.lmax).cache()
  private lazy val skylineDF = Coreness.skylineToDF(spark, ac.skyline).cache()

  test("anchored corenesses export one row per (vertex, k)") {
    val local = ac.lmax.collect().toMap
    assert(anchoredDF.count() == local.valuesIterator.map(_.length.toLong).sum)
  }

  test("per-k core sizes agree with DuckDB") {
    val sparkSide = anchoredDF
      .groupBy($"k")
      .agg(count(lit(1)).cast("long") as "members", max($"l").cast("long") as "max_l")
      .select($"k".cast("long") as "k", $"members", $"max_l")
    Oracle.assertEquivalent(
      sparkSide,
      "SELECT k, COUNT(*) AS members, MAX(CAST(l AS BIGINT)) AS max_l FROM anchored GROUP BY k",
      "anchored" -> anchoredDF
    )
  }

  test("skyline is a subset of anchored pairs (DuckDB anti-join is empty both ways)") {
    val sparkSide = skylineDF
      .join(anchoredDF, Seq("vid", "k", "l"), "left_anti")
      .agg(count(lit(1)).cast("long") as "orphans")
    Oracle.assertEquivalent(
      sparkSide,
      """SELECT COUNT(*) AS orphans FROM skyline s
        |WHERE NOT EXISTS (SELECT 1 FROM anchored a
        |                  WHERE a.vid = s.vid AND a.k = s.k AND a.l = s.l)""".stripMargin,
      "skyline" -> skylineDF,
      "anchored" -> anchoredDF
    )
    assert(sparkSide.head().getLong(0) == 0L)
  }

  test("(1,1)-core members satisfy Def. 3.1 in SQL (in-degree side)") {
    // Membership from the decomposition; within-core in-degrees via SQL on
    // the raw edges. Spark and DuckDB must agree on every member's degree,
    // and no member may fall below k=1.
    val members = anchoredDF.filter($"k" === 1 && $"l" >= 1).select($"vid").distinct().cache()
    val sparkSide = g.edges
      .join(members.withColumnRenamed("vid", "src"), Seq("src"))
      .join(members.withColumnRenamed("vid", "dst"), Seq("dst"))
      .groupBy($"dst" as "vid")
      .agg(count(lit(1)).cast("long") as "ind")
    Oracle.assertEquivalent(
      sparkSide,
      """SELECT e.dst AS vid, COUNT(*) AS ind
        |FROM edges e
        |JOIN members m1 ON m1.vid = e.src
        |JOIN members m2 ON m2.vid = e.dst
        |GROUP BY e.dst""".stripMargin,
      "edges" -> g.edges,
      "members" -> members.toDF()
    )
    val degs = sparkSide.collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    val core = members.as[Long].collect().toSet
    core.foreach(v => assert(degs.getOrElse(v, 0L) >= 1L, s"v$v in-degree in (1,1)-core"))
  }

  test("figure 2 coreness distribution agrees with DuckDB") {
    val fig2 = DirectedGraph.fromEdgeList(spark, EG.figure2Edges)
    val run = AnchoredCoreness.run(fig2, VertexCentric(2))
    val df = Coreness.anchoredToDF(spark, run.lmax)
    val sparkSide = df
      .groupBy($"l")
      .agg(count(lit(1)).cast("long") as "cnt")
      .select($"l".cast("long") as "l", $"cnt")
    Oracle.assertEquivalent(
      sparkSide,
      "SELECT l, COUNT(*) AS cnt FROM anchored GROUP BY l",
      "anchored" -> df
    )
  }
}
