package repro.engine

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.core.LocalGraph

/** Per-vertex adjacency, the read-only context handed to vertex programs. */
final case class VertexAdj(inN: Array[Long], outN: Array[Long]) {
  def inDeg: Int = inN.length
  def outDeg: Int = outN.length

  /** `(inN ++ outN).distinct`, built once per vertex and not serialized. */
  @transient lazy val distinctNeighbors: Array[Long] = (inN ++ outN).distinct
}

final case class GraphStats(
    numVertices: Long,
    numEdges: Long,
    avgDegree: Double,
    maxInDeg: Int,
    maxOutDeg: Int,
    maxDeg: Int
)

/** A directed simple graph held as an edges DataFrame (`src`, `dst`), the
  * repo's canonical on-cluster representation. Normalisation (dedup, no
  * self-loops) happens at construction so every consumer sees the paper's
  * simple-graph assumption. DataFrame ops (degrees, stats, sampling) use
  * the Catalyst API; the message-passing algorithms consume `adjacency`.
  */
final class DirectedGraph private (val edges: DataFrame) extends Serializable {
  import edges.sparkSession.implicits._

  /** All endpoint vertices (isolated vertices cannot be represented). */
  def vertices: DataFrame =
    edges.select($"src" as "vid").union(edges.select($"dst" as "vid")).distinct()

  /** (vid, inDeg, outDeg) with zero-filled missing directions. */
  def degrees: DataFrame = {
    val out = edges.groupBy($"src" as "vid").agg(count(lit(1)) as "outDeg")
    val in  = edges.groupBy($"dst" as "vid").agg(count(lit(1)) as "inDeg")
    vertices
      .join(in, Seq("vid"), "left")
      .join(out, Seq("vid"), "left")
      .select($"vid", coalesce($"inDeg", lit(0L)) as "inDeg", coalesce($"outDeg", lit(0L)) as "outDeg")
  }

  lazy val numEdges: Long = edges.count()
  lazy val numVertices: Long = vertices.count()

  def stats: GraphStats = {
    val row = degrees
      .agg(
        count(lit(1)) as "n",
        max($"inDeg") as "maxIn",
        max($"outDeg") as "maxOut",
        max($"inDeg" + $"outDeg") as "maxDeg"
      )
      .head()
    val n = row.getLong(0)
    GraphStats(
      numVertices = n,
      numEdges = numEdges,
      avgDegree = if (n == 0) 0.0 else numEdges.toDouble / n,
      maxInDeg = row.getLong(1).toInt,
      maxOutDeg = row.getLong(2).toInt,
      maxDeg = row.getLong(3).toInt
    )
  }

  /** Adjacency RDD for the superstep engine: one record per vertex with its
    * full in- and out-neighbor lists (sorted for determinism).
    */
  def adjacency(): RDD[(Long, VertexAdj)] = {
    val e: RDD[(Long, Long)] = edges.select($"src", $"dst").as[(Long, Long)].rdd
    e.cogroup(e.map(_.swap), e.getNumPartitions).mapValues { case (o, i) =>
      VertexAdj(i.toArray.sorted, o.toArray.sorted)
    }
  }

  /** Vertex-induced random subgraph keeping `frac` of the vertices — the
    * cardinality knob of Exp-5.
    */
  def sampleVertices(frac: Double, seed: Long): DirectedGraph = {
    val keep = vertices
      .withColumn("r", pmod(hash($"vid", lit(seed)), lit(1000000)) / 1000000.0)
      .filter($"r" < frac)
      .select($"vid")
    val kept = keep.cache()
    val sub = edges
      .join(kept.withColumnRenamed("vid", "src"), Seq("src"))
      .join(kept.withColumnRenamed("vid", "dst"), Seq("dst"))
      .select($"src", $"dst")
    DirectedGraph.fromEdges(sub)
  }

  /** Collect to a compact local graph (oracles and the peeling baseline). */
  def toLocal: LocalGraph =
    LocalGraph.fromEdges(edges.select($"src", $"dst").as[(Long, Long)].collect().toSeq)
}

object DirectedGraph {

  /** Normalise an arbitrary (src, dst) DataFrame into a simple digraph. */
  def fromEdges(df: DataFrame): DirectedGraph = {
    val spark = df.sparkSession
    import spark.implicits._
    val clean = df
      .select(col(df.columns(0)).cast("long") as "src", col(df.columns(1)).cast("long") as "dst")
      .filter($"src" =!= $"dst")
      .distinct()
    new DirectedGraph(clean)
  }

  def fromEdgeList(spark: SparkSession, edges: Seq[(Long, Long)], numPartitions: Int = 4): DirectedGraph = {
    import spark.implicits._
    fromEdges(spark.sparkContext.parallelize(edges, numPartitions).toDF("src", "dst"))
  }
}
