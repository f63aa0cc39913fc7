package repro.engine

import org.apache.spark.HashPartitioner
import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec}
import repro.graphgen.{ExampleGraphs => EG, GraphGen}

class GraphSpec extends SparkSpec {
  private lazy val fig2 = DirectedGraph.fromEdgeList(spark, EG.figure2Edges)

  test("normalisation: dedup and self-loop removal") {
    val g = DirectedGraph.fromEdgeList(spark, Seq((1L, 2L), (1L, 2L), (2L, 2L), (2L, 3L)))
    assert(g.numEdges == 2)
    assert(g.numVertices == 3)
  }

  test("figure 2 counts") {
    assert(fig2.numVertices == 8)
    assert(fig2.numEdges == 17)
  }

  test("degrees match the paper's Table 1 degrees") {
    val d = fig2.degrees.collect().map(r => (r.getLong(0), (r.getLong(1), r.getLong(2)))).toMap
    for (v <- 1L to 8L)
      assert(d(v) == ((EG.fig2InDegrees(v).toLong, EG.fig2OutDegrees(v).toLong)), s"v$v")
  }

  test("degrees agree with DuckDB (oracle)") {
    import spark.implicits._
    val edges = fig2.edges
    val sparkDeg = fig2.degrees
      .select($"vid", $"inDeg".cast("long") as "ind", $"outDeg".cast("long") as "outd")
    Oracle.assertEquivalent(
      sparkDeg,
      """SELECT v.vid AS vid,
        |       COALESCE(i.c, 0) AS ind,
        |       COALESCE(o.c, 0) AS outd
        |FROM (SELECT src AS vid FROM edges UNION SELECT dst FROM edges) v
        |LEFT JOIN (SELECT dst AS vid, COUNT(*) AS c FROM edges GROUP BY dst) i USING (vid)
        |LEFT JOIN (SELECT src AS vid, COUNT(*) AS c FROM edges GROUP BY src) o USING (vid)
        |""".stripMargin,
      "edges" -> edges
    )
  }

  test("stats of figure 2") {
    val s = fig2.stats
    assert(s.numVertices == 8 && s.numEdges == 17)
    assert(math.abs(s.avgDegree - 17.0 / 8) < 1e-9)
    assert(s.maxInDeg == 3 && s.maxOutDeg == 5 && s.maxDeg == 7)
  }

  test("stats agree with DuckDB (oracle)") {
    import spark.implicits._
    val g = DirectedGraph.fromEdgeList(spark, GraphGen.randomLocalEdges(40, 200, 5))
    val sparkStats = g.degrees.agg(
      count(lit(1)).cast("long") as "n",
      max($"inDeg" + $"outDeg").cast("long") as "maxdeg"
    )
    Oracle.assertEquivalent(
      sparkStats,
      """SELECT COUNT(*) AS n, MAX(ind + outd) AS maxdeg FROM (
        |  SELECT v.vid, COALESCE(i.c,0) AS ind, COALESCE(o.c,0) AS outd
        |  FROM (SELECT src AS vid FROM edges UNION SELECT dst FROM edges) v
        |  LEFT JOIN (SELECT dst AS vid, COUNT(*) AS c FROM edges GROUP BY dst) i USING (vid)
        |  LEFT JOIN (SELECT src AS vid, COUNT(*) AS c FROM edges GROUP BY src) o USING (vid)
        |)""".stripMargin,
      "edges" -> g.edges
    )
  }

  test("adjacency lists match degrees and edge membership") {
    val adj = fig2.adjacency().collect().toMap
    assert(adj.keySet == (1L to 8L).toSet)
    val edgeSet = EG.figure2Edges.toSet
    for ((v, a) <- adj) {
      assert(a.inDeg == EG.fig2InDegrees(v))
      assert(a.outDeg == EG.fig2OutDegrees(v))
      a.inN.foreach(u => assert(edgeSet.contains((u, v))))
      a.outN.foreach(u => assert(edgeSet.contains((v, u))))
    }
  }

  test("adjacency is sorted for determinism") {
    val adj = fig2.adjacency().collect().toMap
    for ((_, a) <- adj) {
      assert(a.inN.toSeq == a.inN.toSeq.sorted)
      assert(a.outN.toSeq == a.outN.toSeq.sorted)
    }
  }

  test("adjacency keeps the edges' hash partitioning") {
    val g = DirectedGraph.fromEdgeList(spark, GraphGen.randomLocalEdges(40, 160, 43), numPartitions = 5)
    assert(g.adjacency().partitioner == Some(new HashPartitioner(g.edges.rdd.getNumPartitions)))
  }

  test("distinctNeighbors is (inN ++ outN).distinct, 2-cycles included") {
    val adj = DirectedGraph.fromEdgeList(spark, GraphGen.randomLocalEdges(30, 200, 44)).adjacency().collect()
    val withTwoCycle = adj.filter { case (_, a) => a.inN.exists(a.outN.contains) }
    assert(withTwoCycle.length > 5)
    for ((v, a) <- adj) assert(a.distinctNeighbors.toSeq == (a.inN ++ a.outN).distinct.toSeq, s"v$v")
  }

  test("toLocal round-trips the edge set") {
    assert(fig2.toLocal.edges.toSet == EG.figure2Edges.toSet)
  }

  test("sampleVertices keeps an induced subgraph") {
    val g = DirectedGraph.fromEdgeList(spark, GraphGen.randomLocalEdges(200, 1200, 9))
    val sub = g.sampleVertices(0.5, seed = 1)
    assert(sub.numVertices < g.numVertices)
    assert(sub.numEdges < g.numEdges)
    // induced: every sampled edge existed in the parent
    val parent = g.toLocal.edges.toSet
    assert(sub.toLocal.edges.forall(parent.contains))
  }

  test("sampleVertices is deterministic in the seed") {
    val g = DirectedGraph.fromEdgeList(spark, GraphGen.randomLocalEdges(100, 500, 10))
    val a = g.sampleVertices(0.4, seed = 7).toLocal.edges.toSet
    val b = g.sampleVertices(0.4, seed = 7).toLocal.edges.toSet
    assert(a == b)
  }

  test("sample fraction scales roughly with frac") {
    val g = DirectedGraph.fromEdgeList(spark, GraphGen.randomLocalEdges(400, 2000, 11))
    val n20 = g.sampleVertices(0.2, 3).numVertices
    val n80 = g.sampleVertices(0.8, 3).numVertices
    assert(n20 < n80)
    assert(n20 > 0)
  }
}
