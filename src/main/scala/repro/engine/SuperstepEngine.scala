package repro.engine

import org.apache.spark.{HashPartitioner, Partitioner}
import org.apache.spark.rdd.RDD
import org.apache.spark.storage.StorageLevel

import scala.collection.mutable
import scala.reflect.ClassTag

/** A vertex program in the Pregel/GRAPE sense (paper Sec. 2): per-vertex
  * state `S`, read-only per-vertex context `C` (typically adjacency), and
  * messages `M` exchanged along edges. A vertex is inactive until it
  * receives a message (or, with `selfWake`, while its own state is still
  * settling — needed by Alg. 4 whose refinement condition depends on the
  * vertex's *own* bound).
  */
trait VertexProgram[C, S, M] extends Serializable {
  def initialState(vid: Long, ctx: C): S

  /** Broadcast performed once before superstep 1 (e.g. Alg. 2 line 4). */
  def initialMessages(vid: Long, ctx: C, s: S): Iterator[(Long, M)]

  /** One vertex update: returns (new state, outbound messages, changed?). */
  def compute(vid: Long, ctx: C, s: S, msgs: Seq[M]): (S, Iterator[(Long, M)], Boolean)

  /** If true, a vertex that changed re-runs next superstep without inbound
    * messages (block-centric mode re-runs it inside the local loop).
    */
  def selfWake: Boolean = false
}

/** Execution mode. `VertexCentric`: every message crosses the network and is
  * delivered next superstep. `BlockCentric`: vertices are grouped into
  * blocks (= Spark partitions here, standing in for machines); messages
  * within a block are delivered immediately and iterated to local
  * convergence; only inter-block messages are communication (Sec. 4.3).
  */
sealed trait EngineMode { def name: String }
final case class VertexCentric(numPartitions: Int) extends EngineMode { val name = "vertex-centric" }
final case class BlockCentric(assign: Long => Int, numBlocks: Int) extends EngineMode { val name = "block-centric" }

/** Per-run accounting mirroring the paper's metrics: rounds to converge
  * (Table 4), messages per round / total communication overhead (Figs. 4–7),
  * and the convergence rate — the fraction of vertices whose state is final
  * after r rounds (Fig. 3).
  */
final case class EngineMetrics(
    mode: String,
    rounds: Int,
    remoteMsgsPerRound: Vector[Long], // index 0 = initial broadcast
    localMsgsPerRound: Vector[Long],
    changedPerRound: Vector[Long], // index r-1 = vertices changed in round r
    nVertices: Long,
    lastChangedHist: Map[Int, Long] // round -> #vertices whose last change was that round
) {
  def totalMessages: Long = remoteMsgsPerRound.sum
  def totalLocalMessages: Long = localMsgsPerRound.sum

  /** Fraction of vertices whose state never changes after round r. */
  def convergenceRate(r: Int): Double =
    if (nVertices == 0) 1.0
    else lastChangedHist.filter(_._1 <= r).values.sum.toDouble / nVertices

  /** Smallest round by which `frac` of the vertices have converged. */
  def roundsToConverge(frac: Double): Int =
    (0 to rounds).find(r => convergenceRate(r) >= frac).getOrElse(rounds)

  def +(other: EngineMetrics): EngineMetrics = EngineMetrics(
    mode,
    rounds + other.rounds,
    remoteMsgsPerRound ++ other.remoteMsgsPerRound,
    localMsgsPerRound ++ other.localMsgsPerRound,
    changedPerRound ++ other.changedPerRound,
    math.max(nVertices, other.nVertices),
    Map.empty // histograms are per-phase; combined histogram is not meaningful
  )
}

private final case class BlockPartitioner(assign: Long => Int, numBlocks: Int) extends Partitioner {
  def numPartitions: Int = numBlocks
  def getPartition(key: Any): Int = {
    val b = assign(key.asInstanceOf[Long]) % numBlocks
    if (b < 0) b + numBlocks else b
  }
}

/** Synchronous superstep executor over Spark RDDs.
  *
  * Each round: shuffle messages to their target vertex, co-group with the
  * vertex states (narrow on the state side — states never move after the
  * initial partitioning), run the vertex program, emit next-round messages.
  * Terminates when no messages are in flight (and, for `selfWake` programs,
  * no vertex is still settling) — the paper's "no vertex broadcasts
  * messages" condition.
  */
object SuperstepEngine {

  private final case class VR[C, S](ctx: C, state: S, changed: Boolean, lastChanged: Int)

  final case class RunResult[S](states: RDD[(Long, S)], metrics: EngineMetrics)

  def run[C: ClassTag, S: ClassTag, M: ClassTag](
      vertices: RDD[(Long, C)],
      program: VertexProgram[C, S, M],
      mode: EngineMode,
      maxRounds: Int = 5000,
      onRoundEnd: (Int, RDD[(Long, S)]) => Unit = (_: Int, _: RDD[(Long, S)]) => ()
  ): RunResult[S] = {
    val (part, localDelivery, blockOf) = mode match {
      case VertexCentric(p)     => (new HashPartitioner(p): Partitioner, false, (_: Long) => -1)
      case BlockCentric(a, b)   => (BlockPartitioner(a, b): Partitioner, true, a)
    }
    val selfWake = program.selfWake

    var state: RDD[(Long, VR[C, S])] = vertices.partitionBy(part).mapPartitions(
      _.map { case (vid, ctx) =>
        val s = program.initialState(vid, ctx)
        (vid, VR(ctx, s, changed = false, lastChanged = 0))
      },
      preservesPartitioning = true
    )
    state.persist(StorageLevel.MEMORY_AND_DISK)
    val nVertices = state.count()

    var msgs: RDD[(Long, M)] = state.flatMap { case (vid, vr) => program.initialMessages(vid, vr.ctx, vr.state) }
    // Initial broadcast accounting (round 0): in block-centric mode only the
    // messages that cross a block boundary are communication.
    val initCounts: (Long, Long) =
      if (!localDelivery) (msgs.count(), 0L)
      else
        state
          .flatMap { case (vid, vr) => program.initialMessages(vid, vr.ctx, vr.state).map { case (t, _) => (vid, t) } }
          .map { case (srcV, t) => if (part.getPartition(srcV) == part.getPartition(t)) (0L, 1L) else (1L, 0L) }
          .fold((0L, 0L)) { case ((a1, b1), (a2, b2)) => (a1 + a2, b1 + b2) }

    val remotePerRound = Vector.newBuilder[Long]
    val localPerRound  = Vector.newBuilder[Long]
    val changedPerRound = Vector.newBuilder[Long]
    remotePerRound += initCounts._1
    localPerRound += initCounts._2

    var pendingMsgs = initCounts._1 + initCounts._2
    var pendingChanged = 0L
    var round = 0
    var prevStepped: RDD[_] = null
    var prevSteppedCheckpointed = false
    var prevState: RDD[_] = state
    // Vertex-centric selfWake vertices that changed re-run next round even
    // without messages; block-centric mode settles them inside the round.
    def pending: Boolean = pendingMsgs > 0 || (selfWake && !localDelivery && pendingChanged > 0)

    while (round < maxRounds && pending) {
      round += 1
      val r = round
      val grouped = state.cogroup(msgs, part)
      val stepped = grouped
        .mapPartitionsWithIndex(
          { (pid, it) => stepPartition(pid, r, it, program, localDelivery, part, selfWake) },
          preservesPartitioning = true
        )
        .persist(StorageLevel.MEMORY_AND_DISK)
      // Truncate lineage periodically or the round-over-round RDD chain
      // overflows the stack; checkpointed RDDs must never be unpersisted
      // (their lineage is gone — the blocks ARE the data).
      val checkpointNow = round % 25 == 0
      if (checkpointNow) stepped.localCheckpoint()

      val (remote, local, changedNow, changedFlags) = stepped
        .map { case (_, (vr, out, localSent)) =>
          (out.length.toLong, localSent, if (vr.lastChanged == r) 1L else 0L, if (vr.changed) 1L else 0L)
        }
        .fold((0L, 0L, 0L, 0L)) { case ((a1, b1, c1, d1), (a2, b2, c2, d2)) => (a1 + a2, b1 + b2, c1 + c2, d1 + d2) }

      remotePerRound += remote
      localPerRound += local
      changedPerRound += changedNow
      pendingMsgs = remote
      pendingChanged = changedFlags

      val newState = stepped.mapValues(_._1)
      val newMsgs: RDD[(Long, M)] = stepped.flatMap { case (_, (_, out, _)) => out.iterator }

      if (prevStepped != null && !prevSteppedCheckpointed) prevStepped.unpersist(blocking = false)
      if (prevState != null && !(prevState eq stepped)) prevState.unpersist(blocking = false)
      prevStepped = stepped
      prevSteppedCheckpointed = checkpointNow
      prevState = null
      state = newState
      msgs = newMsgs
      onRoundEnd(round, state.mapValues(_.state))
    }
    require(!pending, s"engine did not converge within $maxRounds rounds")

    val finalStates = state.mapValues(_.state).persist(StorageLevel.MEMORY_AND_DISK)
    finalStates.count()
    val hist: Map[Int, Long] = state.map(_._2.lastChanged).countByValue().map { case (k, v) => (k, v) }.toMap

    val metrics = EngineMetrics(
      mode.name,
      round,
      remotePerRound.result(),
      localPerRound.result(),
      changedPerRound.result(),
      nVertices,
      hist
    )
    RunResult(finalStates, metrics)
  }

  /** Run the vertex program for one superstep within a partition. In
    * block-centric mode, iterate to local convergence: messages whose target
    * lives in the same block are delivered to the next *sub-iteration*
    * rather than the next round.
    */
  private def stepPartition[C, S, M](
      pid: Int,
      round: Int,
      it: Iterator[(Long, (Iterable[VR[C, S]], Iterable[M]))],
      program: VertexProgram[C, S, M],
      localDelivery: Boolean,
      part: Partitioner,
      selfWake: Boolean
  ): Iterator[(Long, (VR[C, S], Array[(Long, M)], Long))] = {
    val verts = mutable.LinkedHashMap.empty[Long, VR[C, S]]
    var inbox = mutable.HashMap.empty[Long, mutable.ArrayBuffer[M]]
    it.foreach { case (vid, (vrs, ms)) =>
      require(vrs.nonEmpty, s"round $round: message sent to unknown vertex $vid")
      verts(vid) = vrs.head
      if (ms.nonEmpty) inbox.getOrElseUpdate(vid, mutable.ArrayBuffer.empty) ++= ms
    }
    val remoteOut = mutable.HashMap.empty[Long, mutable.ArrayBuffer[(Long, M)]]
    val localSent = mutable.HashMap.empty[Long, Long]

    var active: Iterable[Long] =
      verts.iterator.collect {
        case (vid, vr) if inbox.contains(vid) || (selfWake && vr.changed) => vid
      }.toVector

    var subIter = 0
    while (active.nonEmpty) {
      subIter += 1
      val nextInbox = mutable.HashMap.empty[Long, mutable.ArrayBuffer[M]]
      val nextActive = mutable.LinkedHashSet.empty[Long]
      for (vid <- active) {
        val vr = verts(vid)
        val ms = inbox.getOrElse(vid, mutable.ArrayBuffer.empty[M]).toSeq
        val (s2, out, ch) = program.compute(vid, vr.ctx, vr.state, ms)
        verts(vid) = VR(vr.ctx, s2, ch, if (ch) round else vr.lastChanged)
        out.foreach { case (tgt, m) =>
          if (localDelivery && part.getPartition(tgt) == pid && verts.contains(tgt)) {
            nextInbox.getOrElseUpdate(tgt, mutable.ArrayBuffer.empty) += m
            localSent(vid) = localSent.getOrElse(vid, 0L) + 1L
            nextActive += tgt
          } else {
            remoteOut.getOrElseUpdate(vid, mutable.ArrayBuffer.empty) += ((tgt, m))
          }
        }
        if (localDelivery && selfWake && ch) nextActive += vid
      }
      if (!localDelivery) {
        active = Nil
      } else {
        inbox = nextInbox
        active = nextActive.toVector
      }
    }

    verts.iterator.map { case (vid, vr) =>
      (vid, (vr, remoteOut.getOrElse(vid, mutable.ArrayBuffer.empty).toArray, localSent.getOrElse(vid, 0L)))
    }
  }
}
