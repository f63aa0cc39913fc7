package repro.engine

import org.apache.spark.{HashPartitioner, Partitioner, TaskContext}
import org.apache.spark.rdd.RDD
import org.apache.spark.storage.StorageLevel

import scala.collection.mutable
import scala.reflect.ClassTag

/** Execution mode. `VertexCentric`: every message crosses the network and is
  * delivered next superstep. `BlockCentric`: vertices are grouped into
  * blocks (= Spark partitions here, standing in for machines); messages
  * within a block are delivered immediately and iterated to local
  * convergence; only inter-block messages are communication (Sec. 4.3).
  */
sealed trait EngineMode { def name: String }
final case class VertexCentric(numPartitions: Int) extends EngineMode { val name = "vertex-centric" }
final case class BlockCentric(assign: Long => Int, numBlocks: Int) extends EngineMode {
  val name = "block-centric"

  /** The block of vertex `v`: `assign(v)` folded into `[0, numBlocks)`. */
  def block(v: Long): Int = Math.floorMod(assign(v), numBlocks)
}

/** One round's counts, summed over the blocks: messages that crossed a
  * block boundary (`remote`, the paper's communication), messages delivered
  * within a block (`local`), and round -> #vertices whose last change was
  * that round. The histogram is kept every round so the final one comes with
  * the last round's job instead of a job of its own.
  */
final case class RoundCounts(remote: Long, local: Long, lastChangedHist: Map[Int, Long]) {
  def +(o: RoundCounts): RoundCounts = RoundCounts(
    remote + o.remote,
    local + o.local,
    o.lastChangedHist.foldLeft(lastChangedHist) { case (h, (r, n)) => h.updated(r, h.getOrElse(r, 0L) + n) }
  )
}

/** Per-run accounting mirroring the paper's metrics: rounds to converge
  * (Table 4), messages per round / total communication overhead (Figs. 4–7),
  * and the convergence rate — the fraction of vertices whose state is final
  * after r rounds (Fig. 3). `perRound(0)` is the initial broadcast.
  */
final case class EngineMetrics(perRound: Vector[RoundCounts]) {
  def rounds: Int = perRound.length - 1
  def remoteMsgsPerRound: Vector[Long] = perRound.map(_.remote)
  def localMsgsPerRound: Vector[Long] = perRound.map(_.local)

  /** Index r-1: vertices whose state changed in round r. */
  def changedPerRound: Vector[Long] = (1 to rounds).map(r => perRound(r).lastChangedHist.getOrElse(r, 0L)).toVector
  def lastChangedHist: Map[Int, Long] = perRound.last.lastChangedHist
  def nVertices: Long = lastChangedHist.values.sum
  def totalMessages: Long = remoteMsgsPerRound.sum
  def totalLocalMessages: Long = localMsgsPerRound.sum

  /** Fraction of vertices whose state never changes after round r. */
  def convergenceRate(r: Int): Double =
    if (nVertices == 0) 1.0
    else lastChangedHist.filter(_._1 <= r).values.sum.toDouble / nVertices

  /** Smallest round by which `frac` of the vertices have converged. */
  def roundsToConverge(frac: Double): Int =
    (0 to rounds).find(r => convergenceRate(r) >= frac).getOrElse(rounds)
}

private final case class BlockPartitioner(mode: BlockCentric) extends Partitioner {
  def numPartitions: Int = mode.numBlocks
  def getPartition(key: Any): Int = mode.block(key.asInstanceOf[Long])
}

/** Synchronous superstep executor over Spark RDDs for `NeighbourFixpoint`
  * programs.
  *
  * Every RDD in a run holds one record per partition (= block): the context
  * as two arrays sorted by vertex id, and per round a `Block` of states,
  * last-changed rounds and outbound `(target, (sender, value))` messages
  * aligned to that order. Each round shuffles the previous round's outbox to
  * its target blocks with `partitionBy` (no aggregator, so the reader streams
  * plain records), zips context, previous record and inbox partition by
  * partition, and runs `stepBlock` on them. `stepBlock` writes each message
  * into its target's neighbour tables, in arrival order, so a later message
  * from one sender wins; mail within a block lands at the next sub-iteration,
  * and the outbox is built once the block has settled, from the final values.
  * Each round's record is local-checkpointed, so no task carries more than
  * one round of lineage. Terminates when no messages are in flight — the
  * paper's "no vertex broadcasts messages" condition.
  */
object SuperstepEngine {
  import NeighbourFixpoint.State

  /** Each vertex's context and final state, partitioned as the run was.
    * `trace` holds every vertex's value after each round, round 0's initial
    * values first; it is empty when the run is untraced.
    */
  final case class RunResult[C, V](
      vertices: RDD[(Long, (C, State[V]))],
      metrics: EngineMetrics,
      trace: Vector[Map[Long, V]]
  ) {
    def values: RDD[(Long, V)] = vertices.mapValues(_._2.value)
  }

  /** One block after a round; the arrays are aligned to the block's sorted
    * vertex ids. `outbox` holds the messages bound for the next round.
    */
  private[engine] final case class Block[V](
      states: Array[State[V]],
      lastChanged: Array[Int],
      outbox: Array[(Long, (Long, V))],
      counts: RoundCounts
  )

  /** Runs `program` on `vertices` until no message is in flight. A `trace`d
    * run collects every vertex's value after each round to the Spark
    * driver, one job per round; an untraced run starts no job for it.
    */
  def run[C: ClassTag, V: ClassTag](
      vertices: RDD[(Long, C)],
      program: NeighbourFixpoint[C, V],
      mode: EngineMode,
      maxRounds: Int = 5000,
      trace: Boolean = false
  ): RunResult[C, V] = {
    val (part, localDelivery) = mode match {
      case VertexCentric(p)   => (new HashPartitioner(p): Partitioner, false)
      case b: BlockCentric    => (BlockPartitioner(b): Partitioner, true)
    }

    // The context keeps `part`, so a later run in the same mode starts from
    // the result without a shuffle. The round-0 job below materialises it,
    // and the checkpoint then drops the input's lineage.
    val context: RDD[(Array[Long], Array[C])] = vertices.partitionBy(part).mapPartitions(
      it => Iterator(it.toArray.sortBy(_._1).unzip),
      preservesPartitioning = true
    )
    context.localCheckpoint()

    def verticesOf(blocks: RDD[Block[V]]): RDD[(Long, (C, State[V]))] =
      context.zipPartitions(blocks, preservesPartitioning = true) { (cs, bs) =>
        val (vids, ctxs) = cs.next()
        vids.iterator.zip(ctxs.iterator.zip(bs.next().states.iterator))
      }

    // Round 0: initial states, their tables filled with the vertex's own
    // initial value, and every vertex's initial broadcast. In
    // block-centric mode only the messages that cross a block boundary are
    // communication; a message is local when its target is one of the
    // block's vertices, the rule `stepBlock` applies.
    var blocks: RDD[Block[V]] = context.mapPartitions { cs =>
      val (vids, ctxs) = cs.next()
      val states = Array.tabulate(vids.length) { i =>
        val c = ctxs(i)
        val v = program.init(vids(i), c)
        State(v, Array.fill(program.inN(c).length)(v), Array.fill(program.outN(c).length)(v))
      }
      val outbox = vids.indices.iterator.flatMap { i =>
        program.receivers(ctxs(i), states(i), 0).iterator.map(t => (t, (vids(i), states(i).value)))
      }.toArray
      val local =
        if (localDelivery) outbox.count { case (t, _) => java.util.Arrays.binarySearch(vids, t) >= 0 }.toLong else 0L
      val hist = if (vids.isEmpty) Map.empty[Int, Long] else Map(0 -> vids.length.toLong)
      Iterator(Block(states, new Array[Int](vids.length), outbox, RoundCounts(outbox.length - local, local, hist)))
    }.persist(StorageLevel.MEMORY_AND_DISK)

    val first = blocks.map(_.counts).reduce(_ + _)
    val perRound = Vector.newBuilder[RoundCounts] += first
    // Round 0's outbox also holds the messages that stay in their block.
    var pendingMsgs = first.remote + first.local
    var round = 0
    val traced = Vector.newBuilder[Map[Long, V]]
    def observe(): Unit = if (trace) traced += verticesOf(blocks).mapValues(_._2.value).collect().toMap
    observe()

    while (round < maxRounds && pendingMsgs > 0) {
      round += 1
      val r = round
      val inbox = blocks.flatMap(_.outbox.iterator).partitionBy(part)
      val next = context.zipPartitions(blocks, inbox) { (cs, bs, ms) =>
        val (vids, ctxs) = cs.next()
        Iterator(stepBlock(r, TaskContext.getPartitionId(), vids, ctxs, bs.next(), ms, program, localDelivery, maxRounds))
      }
      // The checkpoint replaces the record's lineage once this round's job
      // has materialised it; only then may the previous record go.
      next.localCheckpoint()
      val counts = next.map(_.counts).reduce(_ + _)
      blocks.unpersist(blocking = false)
      blocks = next
      perRound += counts
      pendingMsgs = counts.remote
      observe()
    }
    require(pendingMsgs == 0, s"engine did not converge within $maxRounds rounds")
    RunResult(verticesOf(blocks), EngineMetrics(perRound.result()), traced.result())
  }

  /** One superstep of one block, without Spark. Each `(target, (sender,
    * value))` of `inbox` is written into the target's neighbour tables in
    * arrival order, so a later message from one sender wins; a vertex's
    * tables are copied at its first message of the round, so `prev` stays
    * intact. Then `update` runs on every vertex that got mail. In
    * block-centric mode (`localDelivery`), each one that changed sends its
    * new value to the receivers in its block, written once every vertex of
    * the sub-iteration has run, and the block repeats until it settles. Then
    * each vertex that changed this round puts its final value in the outbox
    * once for every other receiver, so a receiver outside the block hears
    * one value per sender and round.
    */
  private[engine] def stepBlock[C, V](
      round: Int,
      block: Int,
      vids: Array[Long],
      ctxs: Array[C],
      prev: Block[V],
      inbox: Iterator[(Long, (Long, V))],
      program: NeighbourFixpoint[C, V],
      localDelivery: Boolean,
      maxRounds: Int
  ): Block[V] = {
    val n = vids.length
    val states = prev.states.clone()
    val lastChanged = prev.lastChanged.clone()
    var local = 0L

    val hasMail = new Array[Boolean](n)
    def deliver(i: Int, sender: Long, x: V): Unit = {
      if (states(i) eq prev.states(i)) {
        val s = states(i)
        states(i) = State(s.value, s.in.clone(), s.out.clone())
      }
      val s = states(i)
      val a = java.util.Arrays.binarySearch(program.inN(ctxs(i)), sender)
      if (a >= 0) s.in(a) = x
      val b = java.util.Arrays.binarySearch(program.outN(ctxs(i)), sender)
      if (b >= 0) s.out(b) = x
      hasMail(i) = true
    }

    inbox.foreach { case (t, (u, x)) =>
      val i = java.util.Arrays.binarySearch(vids, t)
      require(i >= 0, s"round $round: message sent to unknown vertex $t")
      deliver(i, u, x)
    }

    var active = (0 until n).filter(hasMail)
    var subIter = 0
    while (active.nonEmpty) {
      subIter += 1
      require(subIter <= maxRounds, s"round $round: block $block did not settle within $maxRounds local sub-iterations")
      java.util.Arrays.fill(hasMail, false)
      val changed = mutable.ArrayBuffer.empty[Int]
      for (i <- active) {
        val s = states(i)
        program.update(ctxs(i), s.value, s.in, s.out).foreach { v =>
          states(i) = s.copy(value = v)
          lastChanged(i) = round
          changed += i
        }
      }
      // Broadcasts within the block go out only after every vertex with mail
      // has run, so all of them read the same tables (Jacobi order).
      if (localDelivery) for (i <- changed; t <- program.receivers(ctxs(i), states(i), round)) {
        val j = java.util.Arrays.binarySearch(vids, t)
        if (j >= 0) {
          deliver(j, vids(i), states(i).value)
          local += 1
        }
      }
      active = (0 until n).filter(hasMail)
    }

    // Once the block has settled, each vertex that changed this round sends
    // its final value once to every receiver outside the block.
    val outbox = mutable.ArrayBuffer.empty[(Long, (Long, V))]
    for (i <- 0 until n if lastChanged(i) == round; t <- program.receivers(ctxs(i), states(i), round))
      if (!localDelivery || java.util.Arrays.binarySearch(vids, t) < 0) outbox += ((t, (vids(i), states(i).value)))

    Block(states, lastChanged, outbox.toArray,
      RoundCounts(outbox.length.toLong, local, lastChanged.groupMapReduce(identity)(_ => 1L)(_ + _)))
  }
}
