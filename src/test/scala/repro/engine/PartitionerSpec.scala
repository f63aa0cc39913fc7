package repro.engine

import org.scalatest.funsuite.AnyFunSuite

import repro.graphgen.GraphGen

class PartitionerSpec extends AnyFunSuite {
  private val edges = GraphGen.randomLocalEdges(400, 2400, 21)
  private val vertexIds = edges.flatMap { case (u, v) => Seq(u, v) }.distinct
  private val maxId = vertexIds.max
  private val B = 8
  // Ids no partitioner saw when it was built: negative and above maxId.
  private val strayIds = Seq(-200L, -1L, maxId + 1, maxId + 1000, Long.MinValue, Long.MaxValue)

  private def allAssigned(p: Partitioners.Partitioning): Unit = {
    val ids = vertexIds ++ strayIds
    ids.foreach { v =>
      val b = p.assign(v)
      assert(b >= 0 && b < B, s"${p.name} put $v in $b")
    }
    assert(p.blockSizes(ids).sum == ids.size)
  }

  test("HASH assigns every vertex to a valid block") { allAssigned(Partitioners.hash(B)) }
  test("SEG assigns every vertex to a valid block") { allAssigned(Partitioners.seg(B, maxId)) }
  test("FENNEL assigns every vertex to a valid block") { allAssigned(Partitioners.fennel(edges, B)) }
  test("METIS-like assigns every vertex to a valid block") { allAssigned(Partitioners.metisLike(edges, B)) }

  test("HASH is perfectly balanced on dense ids") {
    val sizes = Partitioners.hash(B).blockSizes(0L until 400L)
    assert(sizes.max - sizes.min <= 1)
  }

  test("SEG groups contiguous id ranges") {
    val p = Partitioners.seg(B, maxId)
    // monotone non-decreasing block index over ids
    val blocks = (0L to maxId).map(p.assign)
    assert(blocks.zip(blocks.drop(1)).forall { case (a, b) => a <= b })
  }

  test("FENNEL respects an approximate balance") {
    val sizes = Partitioners.fennel(edges, B).blockSizes(vertexIds)
    val cap = vertexIds.size.toDouble / B
    assert(sizes.max <= cap * 1.8, s"sizes=${sizes.mkString(",")}")
    assert(sizes.count(_ > 0) == B)
  }

  test("METIS-like respects an approximate balance") {
    val sizes = Partitioners.metisLike(edges, B).blockSizes(vertexIds)
    val cap = vertexIds.size.toDouble / B
    assert(sizes.max <= cap * 1.8, s"sizes=${sizes.mkString(",")}")
  }

  test("locality-aware partitioners cut fewer edges than HASH on a clustered graph") {
    // Build a graph of 8 dense communities with sparse inter-links: the
    // regime where FENNEL/METIS-like locality matters (Exp-6's premise).
    val rng = new scala.util.Random(33)
    val intra = for {
      c <- 0 until 8
      _ <- 0 until 400
    } yield {
      val u = c * 50 + rng.nextInt(50); val v = c * 50 + rng.nextInt(50)
      (u.toLong, v.toLong)
    }
    val inter = Seq.fill(60)((rng.nextInt(400).toLong, rng.nextInt(400).toLong))
    val clustered = (intra ++ inter).filter { case (u, v) => u != v }.distinct
    val hashCut = Partitioners.hash(B).cutFraction(clustered)
    val fennelCut = Partitioners.fennel(clustered, B).cutFraction(clustered)
    val metisCut = Partitioners.metisLike(clustered, B).cutFraction(clustered)
    assert(fennelCut < hashCut, s"FENNEL $fennelCut !< HASH $hashCut")
    assert(metisCut < hashCut, s"METIS-like $metisCut !< HASH $hashCut")
  }

  test("cutFraction of a single block is zero") {
    val p = Partitioners.hash(1)
    assert(p.cutFraction(edges) == 0.0)
  }

  test("partitionings are deterministic") {
    val a = Partitioners.fennel(edges, B)
    val b = Partitioners.fennel(edges, B)
    assert(vertexIds.forall(v => a.assign(v) == b.assign(v)))
    val c = Partitioners.metisLike(edges, B)
    val d = Partitioners.metisLike(edges, B)
    assert(vertexIds.forall(v => c.assign(v) == d.assign(v)))
  }
}
