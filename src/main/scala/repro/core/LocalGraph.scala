package repro.core

/** Compact in-memory directed simple graph used by the definitional oracle
  * (`BruteForce`) and the sequential `Peeling` baseline [13].
  *
  * Vertex ids are relabelled to a dense `0 until n` range; `ids(i)` maps back
  * to the original id. Parallel edges and self-loops are dropped on build,
  * matching the paper's simple-graph assumption.
  */
final class LocalGraph private (
    val ids: Array[Long],
    val inN: Array[Array[Int]],
    val outN: Array[Array[Int]]
) extends Serializable {
  val n: Int = ids.length
  def m: Int = outN.iterator.map(_.length).sum
  def inDeg(i: Int): Int  = inN(i).length
  def outDeg(i: Int): Int = outN(i).length
  def maxInDeg: Int  = if (n == 0) 0 else (0 until n).map(inDeg).max
  def maxOutDeg: Int = if (n == 0) 0 else (0 until n).map(outDeg).max

  /** Original-id edge list (deduped, loop-free). */
  def edges: Seq[(Long, Long)] =
    for (u <- 0 until n; v <- outN(u)) yield (ids(u), ids(v))
}

object LocalGraph {

  /** Build from an edge list over arbitrary Long ids. Vertices are the union
    * of endpoints (isolated vertices can be forced via `extraVertices`).
    */
  def fromEdges(edges: Iterable[(Long, Long)], extraVertices: Iterable[Long] = Nil): LocalGraph = {
    val clean = edges.iterator.filter { case (u, v) => u != v }.toSet
    val ids = (clean.iterator.flatMap { case (u, v) => Iterator(u, v) } ++ extraVertices.iterator)
      .toArray.distinct.sorted
    val idx = ids.zipWithIndex.toMap
    val inB  = Array.fill(ids.length)(Vector.newBuilder[Int])
    val outB = Array.fill(ids.length)(Vector.newBuilder[Int])
    for ((u, v) <- clean) {
      val (ui, vi) = (idx(u), idx(v))
      outB(ui) += vi
      inB(vi) += ui
    }
    new LocalGraph(ids, inB.map(_.result().sorted.toArray), outB.map(_.result().sorted.toArray))
  }
}
