package repro.engine

import scala.collection.mutable

/** Block-assignment strategies for the block-centric runtime (Exp-6).
  *
  * Each strategy returns a total function `Long => Int` mapping a vertex id
  * to its block in `[0, numBlocks)`. HASH and SEG are GRAPE's built-ins;
  * FENNEL is the streaming partitioner of Tsourakakis et al.; `MetisLike`
  * substitutes for METIS (see DESIGN.md §2) with BFS region growing plus a
  * boundary-refinement pass — like METIS it trades balance for locality.
  */
object Partitioners {

  final case class Partitioning(assign: Long => Int, numBlocks: Int, name: String) {
    def blockSizes(vertexIds: Iterable[Long]): Array[Long] = {
      val sizes = new Array[Long](numBlocks)
      vertexIds.foreach(v => sizes(assign(v)) += 1)
      sizes
    }

    /** Fraction of edges whose endpoints land in different blocks. */
    def cutFraction(edges: Iterable[(Long, Long)]): Double = {
      var cut = 0L; var total = 0L
      edges.foreach { case (u, v) => total += 1; if (assign(u) != assign(v)) cut += 1 }
      if (total == 0) 0.0 else cut.toDouble / total
    }
  }

  /** GRAPE's HASH: block = vid mod N. Balanced, locality-free. */
  def hash(numBlocks: Int): Partitioning = {
    val n = numBlocks
    Partitioning(v => (v % n).toInt.abs, n, "HASH")
  }

  /** GRAPE's SEG: contiguous id ranges of size ceil((maxId+1)/N); ids below
    * 0 go to the first block and ids above `maxId` to the last.
    */
  def seg(numBlocks: Int, maxId: Long): Partitioning = {
    val cap = math.max(1L, (maxId + numBlocks) / numBlocks)
    val n = numBlocks
    Partitioning(v => math.max(0L, math.min(n - 1L, v / cap)).toInt, n, "SEG")
  }

  /** FENNEL streaming partitioner: place each vertex (in id order) in the
    * block maximising |N(v) ∩ block| − α·γ·|block|^(γ−1), γ=1.5,
    * α = m·(N^(γ−1))/n^γ (the paper's recommended setting).
    */
  def fennel(edges: Seq[(Long, Long)], numBlocks: Int): Partitioning = {
    val adj = undirected(edges)
    val vertices = adj.keys.toArray.sorted
    val n = math.max(1, vertices.length)
    val m = edges.length
    val gamma = 1.5
    val alpha = m * math.pow(numBlocks, gamma - 1) / math.pow(n, gamma)
    val assignment = mutable.HashMap.empty[Long, Int]
    val sizes = new Array[Long](numBlocks)
    for (v <- vertices) {
      val nbrCount = new Array[Int](numBlocks)
      adj(v).foreach(u => assignment.get(u).foreach(b => nbrCount(b) += 1))
      var best = 0
      var bestScore = Double.NegativeInfinity
      var b = 0
      while (b < numBlocks) {
        val score = nbrCount(b) - alpha * gamma * math.pow(sizes(b).toDouble, gamma - 1)
        if (score > bestScore) { bestScore = score; best = b }
        b += 1
      }
      assignment(v) = best
      sizes(best) += 1
    }
    val frozen = assignment.toMap
    Partitioning(v => frozen.getOrElse(v, hash(numBlocks).assign(v)), numBlocks, "FENNEL")
  }

  /** METIS-like edge-cut partitioner: BFS region growing into balanced
    * blocks, then one Kernighan–Lin-style pass moving boundary vertices to
    * the neighbor-majority block when balance permits.
    */
  def metisLike(edges: Seq[(Long, Long)], numBlocks: Int): Partitioning = {
    val adj = undirected(edges)
    val vertices = adj.keys.toArray.sorted
    val n = vertices.length
    val cap = math.max(1L, math.ceil(n.toDouble / numBlocks).toLong)
    val assignment = mutable.HashMap.empty[Long, Int]
    val sizes = new Array[Long](numBlocks)
    var block = 0
    // BFS region growing: fill block 0 to capacity, then block 1, ...
    val queue = mutable.Queue.empty[Long]
    val seedIter = vertices.iterator
    var assigned = 0
    while (assigned < n) {
      if (queue.isEmpty) {
        var s = -1L
        while (seedIter.hasNext && s == -1L) {
          val cand = seedIter.next()
          if (!assignment.contains(cand)) s = cand
        }
        if (s != -1L) queue += s
      }
      if (queue.nonEmpty) {
        val v = queue.dequeue()
        if (!assignment.contains(v)) {
          if (sizes(block) >= cap && block < numBlocks - 1) block += 1
          assignment(v) = block
          sizes(block) += 1
          assigned += 1
          adj(v).foreach(u => if (!assignment.contains(u)) queue += u)
        }
      }
    }
    // One KL-style refinement sweep over boundary vertices.
    val slack = (cap * 1.1).toLong + 1
    for (v <- vertices) {
      val cur = assignment(v)
      val nbrCount = new Array[Int](numBlocks)
      adj(v).foreach(u => nbrCount(assignment(u)) += 1)
      var best = cur
      var bestGain = 0
      var b = 0
      while (b < numBlocks) {
        val gain = nbrCount(b) - nbrCount(cur)
        if (b != cur && gain > bestGain && sizes(b) < slack) { bestGain = gain; best = b }
        b += 1
      }
      if (best != cur) {
        assignment(v) = best
        sizes(cur) -= 1
        sizes(best) += 1
      }
    }
    val frozen = assignment.toMap
    Partitioning(v => frozen.getOrElse(v, hash(numBlocks).assign(v)), numBlocks, "METIS-like")
  }

  /** Each endpoint's neighbours in edge order, ignoring direction. */
  private def undirected(edges: Seq[(Long, Long)]): Map[Long, Seq[Long]] =
    edges.flatMap { case (u, v) => Seq(u -> v, v -> u) }.groupMap(_._1)(_._2)
}
