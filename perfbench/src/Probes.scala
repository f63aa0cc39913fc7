package perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData

import com.sun.management.GarbageCollectionNotificationInfo
import org.apache.spark.{HashPartitioner, SparkContext}
import org.apache.spark.scheduler._
import org.apache.spark.storage.StorageLevel

import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Small statistics helpers shared by the probes. */
object Stats {
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of an empty sample")
    val s = xs.sorted
    val pos = q * (s.length - 1)
    val lo = math.floor(pos).toInt
    val hi = math.ceil(pos).toInt
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }
  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1e9)
  }
}

/** Peak JVM heap after GC while armed, from the collectors' notifications:
  * the live heap the decomposition held at its largest, not garbage that a
  * collection would free.
  */
final class HeapWatch {
  private val heapPools: Set[String] =
    ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP).map(_.getName).toSet
  @volatile private var armed = false
  @volatile private var peak = 0L

  private val listener = new NotificationListener {
    def handleNotification(n: Notification, handback: Any): Unit =
      if (armed && n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
        val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
        val used = info.getGcInfo.getMemoryUsageAfterGc.asScala.collect {
          case (pool, u) if heapPools(pool) => u.getUsed
        }.sum
        synchronized { if (used > peak) peak = used }
      }
  }
  ManagementFactory.getGarbageCollectorMXBeans.asScala.foreach {
    case e: NotificationEmitter => e.addNotificationListener(listener, null, null)
    case _                      =>
  }

  /** Run `f` armed; returns its value and the peak heap after GC in MB
    * (the heap in use at the start if no collection ran).
    */
  def measure[A](f: => A): (A, Double) = {
    val start = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
    synchronized { peak = start }
    armed = true
    val a = try f finally armed = false
    val p = synchronized(peak)
    (a, p / (1024.0 * 1024.0))
  }
}

/** Wall time the collectors spent, summed over all of them. */
object GcClock {
  def seconds: Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).filter(_ >= 0).sum / 1e3
}

/** Spark-side spans and counters of one decomposition, collected by a
  * listener the benchmark attaches: jobs (one per superstep), their stages
  * and tasks, and the storage memory held by cached RDD blocks.
  */
final class TraceListener extends SparkListener {
  final case class Job(id: Int, start: Long, callSite: String, stageIds: Seq[Int], var end: Long = -1L)
  final case class Stage(id: Int, submitted: Long, completed: Long, taskMs: mutable.ArrayBuffer[Long])

  val jobs = mutable.ArrayBuffer.empty[Job]
  val stages = mutable.HashMap.empty[Int, Stage]
  private val taskMsByStage = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Long]]
  var tasks = 0L
  var cpuNs = 0L
  var deserMs = 0L
  var shuffleBytes = 0L
  var shuffleRecords = 0L
  var shuffleWriteNs = 0L
  var spillBytes = 0L
  private val blockMem = mutable.HashMap.empty[String, Long]
  private var cachedNow = 0L
  var cachedPeak = 0L
  /** Time spent inside this listener's callbacks: the tracing's own cost. */
  var selfNs = 0L

  private def timedEvent(f: => Unit): Unit = synchronized {
    val t0 = System.nanoTime()
    f
    selfNs += System.nanoTime() - t0
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = timedEvent {
    // The result stage (the job's last) is named after the action's call site.
    val site = if (e.stageInfos.isEmpty) "" else e.stageInfos.maxBy(_.stageId).name
    jobs += Job(e.jobId, e.time, site, e.stageIds)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = timedEvent {
    jobs.find(_.id == e.jobId).foreach(_.end = e.time)
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = timedEvent {
    val i = e.stageInfo
    for (s <- i.submissionTime; c <- i.completionTime)
      stages(i.stageId) = Stage(i.stageId, s, c, taskMsByStage.getOrElse(i.stageId, mutable.ArrayBuffer.empty))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = timedEvent {
    tasks += 1
    taskMsByStage.getOrElseUpdate(e.stageId, mutable.ArrayBuffer.empty) += e.taskInfo.duration
    val m = e.taskMetrics
    if (m != null) {
      cpuNs += m.executorCpuTime
      deserMs += m.executorDeserializeTime
      shuffleBytes += m.shuffleWriteMetrics.bytesWritten
      shuffleRecords += m.shuffleWriteMetrics.recordsWritten
      shuffleWriteNs += m.shuffleWriteMetrics.writeTime
      spillBytes += m.diskBytesSpilled
    }
  }

  override def onBlockUpdated(e: SparkListenerBlockUpdated): Unit = timedEvent {
    val b = e.blockUpdatedInfo
    if (b.blockId.isRDD) {
      val key = b.blockId.name
      cachedNow -= blockMem.getOrElse(key, 0L)
      if (b.storageLevel.isValid && b.memSize > 0) blockMem(key) = b.memSize else blockMem.remove(key)
      cachedNow += blockMem.getOrElse(key, 0L)
      if (cachedNow > cachedPeak) cachedPeak = cachedNow
    }
  }

  /** Superstep jobs: the engine triggers one job per round from one call
    * site, so they are the largest group of jobs started from
    * SuperstepEngine. Sorted by start time.
    */
  def roundJobs: Seq[Job] = synchronized {
    val engineJobs = jobs.filter(_.callSite.contains("SuperstepEngine")).toSeq
    if (engineJobs.isEmpty) Nil
    else engineJobs.groupBy(_.callSite).values.maxBy(_.size).sortBy(_.start)
  }

  /** Driver time between consecutive round jobs with no other job between
    * them (the gaps inside one phase).
    */
  def driverGapsMs: Seq[Double] = synchronized {
    val rounds = roundJobs.map(_.id).toSet
    val byStart = jobs.toSeq.sortBy(_.start)
    byStart.zip(byStart.drop(1)).collect {
      case (a, b) if rounds(a.id) && rounds(b.id) && a.end >= 0 => (b.start - a.end).toDouble
    }
  }
}

/** Off-decomposition probes: Spark's own per-round floor and the two
  * combinatorial kernels on the workload's real inputs.
  */
object Probes {

  /** Median ms of a bare cogroup+count: `nV` states pre-partitioned over
    * `parts` hash partitions, against `msgs` messages shuffled to them — a
    * superstep with no vertex program, ROADMAP item 1's floor.
    */
  def floorRoundMs(sc: SparkContext, vids: Array[Long], msgs: Long, parts: Int): Double = {
    val part = new HashPartitioner(parts)
    val state = sc.parallelize(vids.toSeq, parts).map(v => (v, v.toInt)).partitionBy(part)
      .persist(StorageLevel.MEMORY_AND_DISK)
    state.count()
    val n = vids.length
    val bc = sc.broadcast(vids)
    val messages = sc.range(0L, math.max(1L, msgs), 1L, parts).map { i =>
      val ids = bc.value
      (ids((i % n).toInt), i.toInt)
    }
    val times = (0 until 12).map { _ =>
      Stats.timed(state.cogroup(messages, part).count())._2 * 1e3
    }
    state.unpersist(blocking = true)
    bc.destroy()
    Stats.median(times.drop(2))
  }

  /** Mean ns per call of `f` over `inputs`, as the median of timed passes
    * lasting about `budgetS` seconds in total. Returns the sink so the JIT
    * cannot drop the calls.
    */
  def perCallNs[I](inputs: Array[I], budgetS: Double)(f: I => Int): (Double, Long) = {
    var sink = 0L
    def pass(): Double = {
      val t0 = System.nanoTime()
      var i = 0
      while (i < inputs.length) { sink += f(inputs(i)); i += 1 }
      (System.nanoTime() - t0).toDouble / math.max(1, inputs.length)
    }
    pass() // warm-up
    val passes = mutable.ArrayBuffer.empty[Double]
    val t0 = System.nanoTime()
    while (passes.size < 5 || (passes.size < 200 && (System.nanoTime() - t0) / 1e9 < budgetS)) passes += pass()
    (Stats.median(passes.toSeq), sink)
  }
}
