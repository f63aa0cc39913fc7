package repro.engine

import org.apache.spark.SparkException
import org.apache.spark.rdd.RDD

import scala.collection.mutable
import scala.reflect.ClassTag

import repro.SparkSpec
import repro.core.HIndexProgram
import repro.graphgen.{ExampleGraphs => EG, GraphGen}

/** Engine-semantics tests using tiny programs: weakly-connected min-label
  * propagation (message-driven convergence), a countdown that would keep
  * changing if it ran without mail, a message to a vertex outside the graph,
  * and a block that never settles.
  */
object TestPrograms {

  /** Reads every neighbour and feeds them all. */
  trait Undirected[V] extends NeighbourFixpoint[VertexAdj, V] {
    def inN(a: VertexAdj): Array[Long] = a.inN
    def outN(a: VertexAdj): Array[Long] = a.outN
    def receivers(a: VertexAdj): Array[Long] = a.distinctNeighbors
  }

  /** Min vertex id over the weakly connected component. */
  object MinLabel extends Undirected[Long] {
    def init(vid: Long, a: VertexAdj): Long = vid
    def update(a: VertexAdj, s: Long, in: Array[Long], out: Array[Long]): Option[Long] = {
      val m = (in ++ out).foldLeft(s)(math.min)
      if (m < s) Some(m) else None
    }
  }

  /** Decrements its value by 1 per activation while it exceeds its degree,
    * and feeds only its out-neighbours, so it would keep changing if it ran
    * in a round without mail.
    */
  final class Countdown(start: Int) extends NeighbourFixpoint[VertexAdj, Int] {
    def inN(a: VertexAdj): Array[Long] = a.inN
    def outN(a: VertexAdj): Array[Long] = Array.emptyLongArray
    def receivers(a: VertexAdj): Array[Long] = a.outN
    def init(vid: Long, a: VertexAdj): Int = start
    def update(a: VertexAdj, s: Int, in: Array[Int], out: Array[Int]): Option[Int] =
      if (s > a.inDeg + a.outDeg) Some(s - 1) else None
  }

  /** Every vertex addresses its initial message to `Stray`, an id outside
    * the graph.
    */
  object StrayMessage extends NeighbourFixpoint[VertexAdj, Int] {
    val Stray = 999L
    def inN(a: VertexAdj): Array[Long] = Array.emptyLongArray
    def outN(a: VertexAdj): Array[Long] = Array.emptyLongArray
    def receivers(a: VertexAdj): Array[Long] = Array(Stray)
    def init(vid: Long, a: VertexAdj): Int = 0
    def update(a: VertexAdj, s: Int, in: Array[Int], out: Array[Int]): Option[Int] = None
  }

  /** Each vertex's value is its id, which it sends to its out-neighbours
    * only when it is odd, and never changes.
    */
  object OddSenders extends NeighbourFixpoint[VertexAdj, Long] {
    def inN(a: VertexAdj): Array[Long] = a.inN
    def outN(a: VertexAdj): Array[Long] = Array.emptyLongArray
    def receivers(a: VertexAdj): Array[Long] = a.outN
    override def receivers(a: VertexAdj, s: NeighbourFixpoint.State[Long], round: Int): Array[Long] =
      if (s.value % 2 != 0) a.outN else Array.emptyLongArray
    def init(vid: Long, a: VertexAdj): Long = vid
    def update(a: VertexAdj, s: Long, in: Array[Long], out: Array[Long]): Option[Long] = None
  }

  /** Every activation changes the vertex and messages all its neighbours,
    * so neighbours in one block keep waking each other and never settle.
    */
  object PingPong extends Undirected[Int] {
    def init(vid: Long, a: VertexAdj): Int = 0
    def update(a: VertexAdj, s: Int, in: Array[Int], out: Array[Int]): Option[Int] = Some(s + 1)
  }
}

class EngineSpec extends SparkSpec {
  import TestModes.blockMode
  import TestPrograms._

  private def adjOf(edges: Seq[(Long, Long)]): RDD[(Long, VertexAdj)] =
    DirectedGraph.fromEdgeList(spark, edges).adjacency()

  private val twoComponents: Seq[(Long, Long)] =
    Seq((1L, 2L), (2L, 3L), (3L, 4L), (10L, 11L), (11L, 12L)) // chains 1-4 and 10-12

  test("min-label converges to component minima (vertex-centric)") {
    val r = SuperstepEngine.run(adjOf(twoComponents), MinLabel, VertexCentric(4))
    val s = r.values.collect().toMap
    assert(s == Map(1L -> 1L, 2L -> 1L, 3L -> 1L, 4L -> 1L, 10L -> 10L, 11L -> 10L, 12L -> 10L))
  }

  test("min-label converges to component minima (block-centric)") {
    val r = SuperstepEngine.run(adjOf(twoComponents), MinLabel, blockMode(3))
    val s = r.values.collect().toMap
    assert(s.forall { case (v, lbl) => lbl == (if (v < 10) 1L else 10L) })
  }

  test("vertex- and block-centric agree on figure 2") {
    val adj = adjOf(EG.figure2Edges)
    val v = SuperstepEngine.run(adj, MinLabel, VertexCentric(4)).values.collect().toMap
    val b = SuperstepEngine.run(adjOf(EG.figure2Edges), MinLabel, blockMode(4)).values.collect().toMap
    assert(v == b)
  }

  test("single-block block-centric converges in one round") {
    val r = SuperstepEngine.run(adjOf(twoComponents), MinLabel, BlockCentric(_ => 0, 1))
    assert(r.metrics.rounds == 1, s"rounds=${r.metrics.rounds}")
    assert(r.metrics.totalMessages == 0L, "single block should need no communication")
    assert(r.metrics.totalLocalMessages > 0L)
  }

  test("block-centric needs no more rounds than vertex-centric") {
    for (seed <- 1 to 4) {
      val edges = GraphGen.randomLocalEdges(60, 150, seed)
      val v = SuperstepEngine.run(adjOf(edges), MinLabel, VertexCentric(4)).metrics
      val b = SuperstepEngine.run(adjOf(edges), MinLabel, blockMode(4)).metrics
      assert(b.rounds <= v.rounds, s"seed=$seed B=${b.rounds} V=${v.rounds}")
    }
  }

  test("block-centric sends fewer remote messages than vertex-centric") {
    for (seed <- 5 to 8) {
      val edges = GraphGen.randomLocalEdges(60, 150, seed)
      val v = SuperstepEngine.run(adjOf(edges), MinLabel, VertexCentric(4)).metrics
      val b = SuperstepEngine.run(adjOf(edges), MinLabel, blockMode(4)).metrics
      assert(b.totalMessages <= v.totalMessages, s"seed=$seed")
    }
  }

  test("message counts are deterministic across runs") {
    val edges = GraphGen.randomLocalEdges(50, 120, 9)
    val a = SuperstepEngine.run(adjOf(edges), MinLabel, VertexCentric(4)).metrics
    val b = SuperstepEngine.run(adjOf(edges), MinLabel, VertexCentric(4)).metrics
    assert(a.remoteMsgsPerRound == b.remoteMsgsPerRound)
    assert(a.rounds == b.rounds)
  }

  test("results are independent of the partition count") {
    val edges = GraphGen.randomLocalEdges(50, 120, 10)
    val a = SuperstepEngine.run(adjOf(edges), MinLabel, VertexCentric(2)).values.collect().toMap
    val b = SuperstepEngine.run(adjOf(edges), MinLabel, VertexCentric(7)).values.collect().toMap
    assert(a == b)
  }

  test("results are independent of the block partitioner") {
    val edges = GraphGen.randomLocalEdges(50, 120, 11)
    val fennel = Partitioners.fennel(edges, 4)
    val a = SuperstepEngine.run(adjOf(edges), MinLabel, blockMode(4)).values.collect().toMap
    val b = SuperstepEngine
      .run(adjOf(edges), MinLabel, BlockCentric(fennel.assign, 4))
      .values.collect().toMap
    assert(a == b)
  }

  test("initial broadcast is counted as round 0") {
    val r = SuperstepEngine.run(adjOf(Seq((1L, 2L))), MinLabel, VertexCentric(2))
    // 2 vertices, each messages its single neighbor
    assert(r.metrics.remoteMsgsPerRound.head == 2L)
  }

  test("an empty graph takes no rounds and sends nothing") {
    for (mode <- Seq(VertexCentric(3), blockMode(3))) {
      val r = SuperstepEngine.run(adjOf(Seq.empty), MinLabel, mode)
      val m = r.metrics
      assert(m.rounds == 0, mode.name)
      assert(m.remoteMsgsPerRound == Vector(0L), mode.name)
      assert(m.changedPerRound.isEmpty, mode.name)
      assert(m.nVertices == 0L, mode.name)
      assert(m.convergenceRate(0) == 1.0, mode.name)
      assert(r.values.isEmpty(), mode.name)
    }
  }

  test("metrics: convergence rate reaches 1 and is monotone") {
    val edges = GraphGen.randomLocalEdges(60, 150, 12)
    val m = SuperstepEngine.run(adjOf(edges), MinLabel, VertexCentric(4)).metrics
    assert(m.convergenceRate(m.rounds) == 1.0)
    val rates = (0 to m.rounds).map(m.convergenceRate)
    assert(rates.zip(rates.drop(1)).forall { case (a, b) => a <= b })
  }

  test("roundsToConverge is consistent with convergenceRate") {
    val edges = GraphGen.randomLocalEdges(60, 150, 13)
    val m = SuperstepEngine.run(adjOf(edges), MinLabel, VertexCentric(4)).metrics
    val r90 = m.roundsToConverge(0.9)
    assert(m.convergenceRate(r90) >= 0.9)
    if (r90 > 0) assert(m.convergenceRate(r90 - 1) < 0.9)
  }

  test("a vertex without mail does not run") {
    val r = SuperstepEngine.run(adjOf(Seq((1L, 2L), (2L, 3L))), new Countdown(10), VertexCentric(2))
    // 1 gets no mail; 2 hears from 1 once; 3 hears from 2 twice (its initial
    // value, then the one it changed to).
    assert(r.values.collect().toMap == Map(1L -> 10, 2L -> 9, 3L -> 8))
  }

  test("a slot no message has written holds the reader's own initial value") {
    for (mode <- Seq(VertexCentric(2), blockMode(2))) {
      val r = SuperstepEngine.run(adjOf(Seq((1L, 4L), (2L, 4L), (3L, 4L))), OddSenders, mode)
      val in4 = r.vertices.lookup(4L).head._2.in
      assert(in4.toSeq == Seq(1L, 4L, 3L), mode.name)
      assert(r.metrics.perRound(0).remote + r.metrics.perRound(0).local == 2, mode.name)
    }
  }

  test("engine enforces maxRounds") {
    assertThrows[IllegalArgumentException] {
      SuperstepEngine.run(adjOf(GraphGen.randomLocalEdges(60, 150, 14)), MinLabel, VertexCentric(4), maxRounds = 1)
    }
  }

  test("a message to a vertex outside the graph fails the run") {
    for (mode <- Seq(VertexCentric(2), blockMode(2))) {
      val e = intercept[org.apache.spark.SparkException] {
        SuperstepEngine.run(adjOf(Seq((1L, 2L), (2L, 3L))), StrayMessage, mode)
      }
      assert(e.getMessage.contains(s"unknown vertex ${StrayMessage.Stray}"), s"${mode.name}: ${e.getMessage}")
    }
  }

  test("onRoundEnd observes intermediate states") {
    val seen = Vector.newBuilder[Map[Long, Long]]
    val r = SuperstepEngine.run(
      adjOf(Seq((1L, 2L), (2L, 3L), (3L, 4L))),
      MinLabel,
      VertexCentric(2),
      onRoundEnd = Some((values: RDD[(Long, Long)]) => { seen += values.collect().toMap; () })
    )
    val snaps = seen.result()
    assert(snaps.nonEmpty)
    assert(snaps.last == Map(1L -> 1L, 2L -> 1L, 3L -> 1L, 4L -> 1L))
    // One snapshot per round, round 0's initial values first.
    assert(snaps.size == r.metrics.rounds + 1)
    assert(snaps.head == Map(1L -> 1L, 2L -> 2L, 3L -> 3L, 4L -> 4L))
  }

  /** Per-round accounting of one run: remote, local and changed counts per
    * round, then the last-changed histogram.
    */
  private def accounting(m: EngineMetrics): String =
    Seq(m.remoteMsgsPerRound, m.localMsgsPerRound, m.changedPerRound).map(_.mkString(",")).mkString(" | ") +
      " | " + m.lastChangedHist.toSeq.sorted.map { case (r, n) => s"$r:$n" }.mkString(",")

  private def accountingOf[V: ClassTag](edges: Seq[(Long, Long)], p: NeighbourFixpoint[VertexAdj, V], mode: EngineMode) =
    accounting(SuperstepEngine.run(adjOf(edges), p, mode).metrics)

  test("per-round accounting matches the pinned values") {
    // remote per round | local per round | changed per round | last-changed
    // histogram, one line per program, mode and graph.
    val expected = Map(
      "MinLabel/vertex-centric/seed=21" -> "286,230,225,187,53,2,0 | 0,0,0,0,0,0,0 | 46,47,41,15,1,0 | 0:1,1:4,2:14,3:26,4:14,5:1",
      "HIndexIn/vertex-centric/seed=21" -> "150,89,34,27,18,4,4,0 | 0,0,0,0,0,0,0,0 | 38,18,9,7,2,2,0 | 0:14,1:13,2:13,3:9,4:7,5:2,6:2",
      "MinLabel/block-centric/seed=21" -> "216,196,180,66,0 | 70,116,69,20,0 | 54,51,21,0 | 0:1,1:8,2:30,3:21",
      "HIndexIn/block-centric/seed=21" -> "112,72,29,26,4,0 | 38,23,10,6,5,0 | 40,18,12,4,0 | 0:14,1:14,2:16,3:12,4:4",
      "MinLabel/vertex-centric/seed=22" -> "296,242,230,174,35,0 | 0,0,0,0,0,0 | 48,47,35,11,0 | 0:1,1:5,2:17,3:26,4:11",
      "HIndexIn/vertex-centric/seed=22" -> "150,92,28,18,18,23,10,0 | 0,0,0,0,0,0,0,0 | 38,12,9,7,9,4,0 | 0:9,1:13,2:9,3:9,4:7,5:9,6:4",
      "MinLabel/block-centric/seed=22" -> "226,212,143,11,0 | 70,118,33,0,0 | 55,36,5,0 | 0:1,1:22,2:32,3:5",
      "HIndexIn/block-centric/seed=22" -> "115,70,22,21,19,8,0 | 35,26,4,8,4,3,0 | 41,9,13,9,5,0 | 0:9,1:16,2:8,3:13,4:9,5:5"
    )
    val got = for {
      seed <- Seq(21, 22)
      edges = GraphGen.randomLocalEdges(60, 150, seed)
      mode <- Seq(VertexCentric(4), blockMode(4))
      (name, acc) <- Seq(
        "MinLabel" -> accountingOf(edges, MinLabel, mode),
        "HIndexIn" -> accountingOf(edges, HIndexProgram.In, mode)
      )
    } yield (s"$name/${mode.name}/seed=$seed", acc)
    assert(got.map(_._1).toSet == expected.keySet)
    got.foreach { case (k, v) => assert(v == expected(k), k) }
  }

  /** Runs `p` on `edges` in `mode` and checks each round's remote count
    * against the number of (changed vertex, receiver outside its block)
    * pairs, read off consecutive `onRoundEnd` snapshots (round 0: every
    * vertex), and the final values against a vertex-centric run. Both test
    * programs only ever lower a value, so a vertex changed in a round exactly
    * when its value differs between the two snapshots.
    */
  private def checkRemoteAccounting[V: ClassTag](
      edges: Seq[(Long, Long)],
      p: NeighbourFixpoint[VertexAdj, V],
      mode: BlockCentric,
      label: String
  ): Unit = {
    val adj = adjOf(edges).collect().toMap
    val snaps = Vector.newBuilder[Map[Long, V]]
    val r = SuperstepEngine.run(adjOf(edges), p, mode,
      onRoundEnd = Some((values: RDD[(Long, V)]) => { snaps += values.collect().toMap; () }))
    val s = snaps.result()
    def outside(vs: Iterable[Long]): Long =
      vs.iterator.map(v => p.receivers(adj(v)).count(t => mode.block(t) != mode.block(v)).toLong).sum
    val expected = outside(adj.keys) +: s.zip(s.tail).map { case (a, b) => outside(adj.keys.filter(v => a(v) != b(v))) }
    assert(r.metrics.remoteMsgsPerRound == expected, label)
    assert(s.last == SuperstepEngine.run(adjOf(edges), p, VertexCentric(4)).values.collect().toMap, label)
  }

  test("block-centric remote messages are the changed vertices' receivers outside their block") {
    for (seed <- Seq(21, 22)) {
      val edges = GraphGen.randomLocalEdges(60, 150, seed)
      for (part <- Seq(Partitioners.hash(4), Partitioners.fennel(edges, 4), Partitioners.metisLike(edges, 4))) {
        val mode = BlockCentric(part.assign, part.numBlocks)
        checkRemoteAccounting(edges, MinLabel, mode, s"MinLabel/${part.name}/seed=$seed")
        checkRemoteAccounting(edges, HIndexProgram.In, mode, s"HIndexIn/${part.name}/seed=$seed")
      }
    }
  }

  test("long chains converge (lineage/checkpoint robustness)") {
    // 120-vertex path: min-label needs >100 rounds vertex-centrically; each
    // round's record is local-checkpointed, so no task carries the chain.
    val chain = (0L until 120L).sliding(2).map(s => (s(1), s(0))).toSeq
    val r = SuperstepEngine.run(adjOf(chain), MinLabel, VertexCentric(3))
    assert(r.metrics.rounds > 100)
    assert(r.values.collect().toMap.values.forall(_ == 0L))
  }

  /** Distinct RDDs reachable from `rdd` through its dependencies. */
  private def lineageSize(rdd: RDD[_]): Int = {
    val seen = mutable.Set.empty[Int]
    def visit(r: RDD[_]): Unit = if (seen.add(r.id)) r.dependencies.foreach(d => visit(d.rdd))
    visit(rdd)
    seen.size
  }

  test("the result's lineage stays bounded however many rounds run") {
    def path(n: Long) = (0L until n).sliding(2).map(s => (s(1), s(0))).toSeq
    val long = SuperstepEngine.run(adjOf(path(120)), MinLabel, VertexCentric(3))
    val short = SuperstepEngine.run(adjOf(path(12)), MinLabel, VertexCentric(3))
    assert(long.metrics.rounds > 100 && short.metrics.rounds >= 10)
    // A later run starts from the first run's vertices: the input keeps the
    // run's partitioner, so the engine's `partitionBy` adds no shuffle.
    val chainedInput = long.vertices.mapValues(_._1)
    assert(chainedInput.partitioner.isDefined && chainedInput.partitioner == long.vertices.partitioner)
    assert(lineageSize(chainedInput) < 10, s"chained input: ${lineageSize(chainedInput)} RDDs in the lineage")
    val chained = SuperstepEngine.run(chainedInput, MinLabel, VertexCentric(3))
    assert(chained.metrics.rounds == long.metrics.rounds)
    for (r <- Seq(long, short, chained)) {
      val size = lineageSize(r.values)
      assert(size < 10, s"${r.metrics.rounds} rounds: $size RDDs in the lineage")
    }
  }

  test("the block-local loop fails once a round's sub-iterations exceed maxRounds") {
    val e = intercept[SparkException] {
      SuperstepEngine.run(adjOf(Seq((1L, 2L))), PingPong, BlockCentric(_ => 0, 1), maxRounds = 20)
    }
    assert(e.getMessage.contains("round 1: block 0 did not settle within 20 local sub-iterations"), e.getMessage)
  }
}
