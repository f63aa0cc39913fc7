package perfbench

import org.apache.spark.{ListenerBusDrain, SparkContext}
import org.apache.spark.sql.SparkSession

import scala.collection.mutable

import repro.core.{AnchoredCoreness, LocalGraph, Peeling, SkylineCoreness, DIndex, HIndex}
import repro.engine.{DirectedGraph, EngineMetrics, Partitioners}

/** D-core benchmark: decomposes one workload's stand-in graph through the
  * public entry points of `repro.core`, checks every result vertex by vertex
  * against `Peeling.decompose`, and prints the metrics as one JSON line.
  *
  * Untraced (`--trace 0`): the end-to-end metrics. Traced (`--trace 1`): a
  * `SparkListener` and off-line probes give the per-layer metrics; see
  * perfbench/README.md for the glossary and the layer map.
  */
object Main {

  final case class Args(
      workload: String,
      seed: Long,
      seconds: Double,
      trace: Boolean,
      size: String,
      graphSeed: Option[Long],
      master: String,
      env: Map[String, String]
  )

  /** One decomposition's counts and its result, Φ(v) as (k, lmax(k,v))
    * pairs for AC and SC(v) for SC.
    */
  final case class Outcome(
      counts: Counts,
      phaseMsgs: Seq[Long],
      setupMsgs: Long,
      remote: Long,
      local: Long,
      changed: Long,
      hitMaxRounds: Boolean,
      result: Map[Long, Vector[(Int, Int)]]
  )

  val SetupReps = 3
  val MinReps = 3
  val MaxRounds = 5000
  val MB = 1024.0 * 1024.0

  private val started = System.nanoTime()
  private def log(msg: String): Unit = println(f"# ${(System.nanoTime() - started) / 1e9}%7.2f $msg")

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => sys.error(s"bad argument ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, sys.error(s"missing --$k"))
    Args(
      workload = need("workload"),
      seed = need("seed").toLong,
      seconds = need("seconds").toDouble,
      trace = need("trace") match { case "0" => false; case "1" => true; case t => sys.error(s"--trace $t") },
      size = kv.getOrElse("size", "bench"),
      graphSeed = kv.get("graph-seed").map(_.toLong),
      master = need("master"),
      env = kv.collect { case (k, v) if k.startsWith("env.") => k.drop(4) -> v }
    )
  }

  def main(argv: Array[String]): Unit = {
    val code =
      try run(parse(argv))
      catch {
        case e: Throwable =>
          e.printStackTrace()
          2
      }
    System.exit(code)
  }

  def session(a: Args): SparkSession =
    SparkSession.builder
      .master(a.master)
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.sql.shuffle.partitions", "8")
      .getOrCreate()

  type Run = Either[AnchoredCoreness.ACRun, SkylineCoreness.SCRun]

  /** One public `run` call. It materialises its result RDD before returning. */
  def decompose(w: Workload, g: DirectedGraph): Run =
    if (w.skyline) Right(SkylineCoreness.run(g, w.mode, MaxRounds))
    else Left(AnchoredCoreness.run(g, w.mode, MaxRounds))

  /** Counts of a finished run, and its result collected to the driver. */
  def outcome(run: Run): Outcome = {
    def sum(ms: Seq[EngineMetrics], f: EngineMetrics => Long) = ms.map(f).sum
    run match {
      case Right(r) =>
        val ms = Seq(r.initIn, r.initOut, r.main)
        Outcome(
          Counts(r.totalRounds, r.totalMessages, Seq(r.initIn.rounds + r.initOut.rounds, r.main.rounds)),
          Seq(r.initIn.totalMessages + r.initOut.totalMessages, r.main.totalMessages),
          0L,
          sum(ms, _.totalMessages), sum(ms, _.totalLocalMessages), sum(ms, _.changedPerRound.sum),
          ms.exists(_.rounds >= MaxRounds),
          r.skyline.collect().toMap
        )
      case Left(r) =>
        val ms = Seq(r.phase1, r.phase2, r.phase3)
        Outcome(
          Counts(r.totalRounds, r.totalMessages, ms.map(_.rounds)),
          ms.map(_.totalMessages),
          r.setupMessages,
          sum(ms, _.totalMessages), sum(ms, _.totalLocalMessages), sum(ms, _.changedPerRound.sum),
          ms.exists(_.rounds >= MaxRounds),
          r.lmax.collect().iterator.map { case (v, arr) => v -> anchoredPairs(arr) }.toMap
        )
    }
  }

  def anchoredPairs(arr: Array[Int]): Vector[(Int, Int)] = arr.iterator.zipWithIndex.map { case (l, k) => (k, l) }.toVector

  /** Unpersist every cached RDD but the input edges: `run` leaves its
    * results and intermediate states persisted.
    */
  def clearCache(sc: SparkContext, keep: Set[Int]): Unit =
    sc.getPersistentRDDs.foreach { case (id, rdd) => if (!keep(id)) rdd.unpersist(blocking = true) }

  def run(a: Args): Int = {
    val w = Workloads.byName(a.workload)
    val graphSeed = a.graphSeed.getOrElse(w.base.seed)
    val spec = w.spec(a.size, graphSeed)
    log(s"workload ${w.name}: ${w.algo} on ${spec.abbr} (${a.size} size, graph seed $graphSeed, label seed ${a.seed})")

    // ---- Set-up, repeated: session start, generation, edges materialised.
    var spark: SparkSession = null
    var g: DirectedGraph = null
    val setupS, sessionS, generateS = mutable.ArrayBuffer.empty[Double]
    for (_ <- 1 to SetupReps) {
      if (spark != null) spark.stop()
      val (s, ts) = Stats.timed(session(a))
      val (graph, tg) = Stats.timed {
        val graph = Workloads.generate(s, spec, a.seed, w.blocks)
        graph.edges.cache()
        graph.edges.count()
        graph
      }
      spark = s; g = graph
      sessionS += ts; generateS += tg; setupS += ts + tg
      log(f"setup: session $ts%.3f s, generate $tg%.3f s")
    }
    val sc = spark.sparkContext
    val keep = sc.getPersistentRDDs.keySet.toSet

    // ---- Reference: the sequential peeling decomposition of the same graph.
    val local = g.toLocal
    val (peel, peelS) = Stats.timed(Peeling.decompose(local).getOrElse(sys.error("peeling exceeded its budget")))
    val expected: Map[Long, Vector[(Int, Int)]] =
      if (w.skyline) peel.skyline else peel.anchored.map { case (v, arr) => v -> anchoredPairs(arr) }
    log(f"graph: ${local.n} vertices, ${local.m} edges; setup ${Stats.median(setupS.toSeq)}%.3f s; peeling $peelS%.3f s")

    // ---- Timed repetitions, one decomposition at a time (closed loop). The
    // set-ups warm Spark; no untimed decomposition runs first, so repetition
    // 1 is JIT-cold and the median over at least MinReps repetitions skips it.
    val heap = new HeapWatch
    val decS, heapMb = mutable.ArrayBuffer.empty[Double]
    val traces = mutable.ArrayBuffer.empty[(TraceListener, Double, Outcome, Double)]
    var first: Option[Counts] = None
    var attempted, failed = 0
    val t0 = System.nanoTime()
    def elapsed = (System.nanoTime() - t0) / 1e9
    // Full size is the counts check; one decomposition there takes a minute.
    val minReps = if (a.size == "full") 1 else MinReps
    def more: Boolean = decS.size < minReps || elapsed + Stats.median(decS.toSeq) <= a.seconds

    while (failed == 0 && more) {
      clearCache(sc, keep)
      System.gc()
      val listener = new TraceListener
      if (a.trace) sc.addSparkListener(listener)
      val gc0 = GcClock.seconds
      attempted += 1
      try {
        val ((run, peakMb), t) = Stats.timed(heap.measure(decompose(w, g)))
        val gcS = GcClock.seconds - gc0
        if (a.trace) { ListenerBusDrain(sc); sc.removeSparkListener(listener) }
        val out = outcome(run)
        val mismatched = expected.count { case (v, e) => !out.result.get(v).contains(e) } +
          out.result.keySet.count(v => !expected.contains(v))
        val drift = first.exists(_ != out.counts)
        if (first.isEmpty) first = Some(out.counts)
        if (mismatched > 0 || out.hitMaxRounds || drift) {
          failed += 1
          log(s"FAILED: $mismatched vertices differ from peeling; maxRounds hit: ${out.hitMaxRounds}; " +
            s"counts ${out.counts} vs first repetition ${first.get}")
        }
        decS += t; heapMb += peakMb
        if (a.trace) traces += ((listener, gcS, out, t))
        log(f"rep $attempted: ${t}%.3f s rounds ${out.counts.rounds} " +
          f"(${out.counts.phaseRounds.mkString("/")}) messages ${out.counts.messages} heap ${peakMb}%.1f MB")
      } catch {
        case e: Exception =>
          failed += 1
          log(s"FAILED: decomposition threw $e")
          e.printStackTrace()
      }
    }
    val counts = first.getOrElse(Counts(0, 0L, Nil))
    log(s"error_rate ${failed.toDouble / attempted} ($failed of $attempted)")

    val pinned = w.pinned.get(a.size).filter(_ => graphSeed == w.base.seed)
    val pinnedDrift = pinned.exists(_ != counts)
    pinned.foreach { p =>
      log(s"pinned counts ${if (pinnedDrift) "DRIFT" else "match"}: expected $p, measured $counts")
    }

    val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
    if (failed == 0) {
      if (!a.trace) {
        val dec = Stats.median(decS.toSeq)
        metrics("setup_s") = (Stats.median(setupS.toSeq), "s")
        metrics("decompose_s") = (dec, "s")
        metrics("s_per_round") = (dec / counts.rounds, "s")
        metrics("rounds") = (counts.rounds.toDouble, "count")
        metrics("messages") = (counts.messages.toDouble, "count")
        metrics("heap_peak_mb") = (heapMb.max, "MB")
      } else {
        perLayer(metrics, sc, w, g, local, peel, counts, traces.toSeq, generateS.toSeq, sessionS.toSeq)
      }
    }
    spark.stop()

    log("env " + Json.obj(a.env.toSeq.map { case (k, v) => k -> Json.str(v) } ++ Seq(
      "master" -> Json.str(a.master),
      "nproc" -> Runtime.getRuntime.availableProcessors.toString,
      "max_heap_mb" -> (Runtime.getRuntime.maxMemory / MB).toString,
      "jvm" -> Json.str(System.getProperty("java.vm.version")),
      "spark" -> Json.str(org.apache.spark.SPARK_VERSION),
      "scala" -> Json.str(scala.util.Properties.versionNumberString),
      "samples" -> decS.size.toString
    )))
    println(Json.obj(Seq(
      "correct" -> (failed == 0).toString,
      "attempted" -> attempted.toString,
      "failed" -> failed.toString,
      "metrics" -> Json.obj(metrics.toSeq.map { case (k, (v, u)) =>
        k -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(u)))
      })
    )))
    if (failed > 0) 1 else if (pinnedDrift && a.size == "full") 3 else 0
  }

  def perLayer(
      m: mutable.LinkedHashMap[String, (Double, String)],
      sc: SparkContext,
      w: Workload,
      g: DirectedGraph,
      local: LocalGraph,
      peel: Peeling.Result,
      counts: Counts,
      traces: Seq[(TraceListener, Double, Outcome, Double)],
      generateS: Seq[Double],
      sessionS: Seq[Double]
  ): Unit = {
    def med(xs: Seq[Double]) = Stats.median(xs)
    def perRep(f: TraceListener => Double) = med(traces.map(t => f(t._1)))
    val out = traces.head._3

    // graphgen / engine.DirectedGraph
    m("graphgen.generate_s") = (med(generateS), "s")
    m("spark.session_s") = (med(sessionS), "s")
    m("graph.adjacency_s") = (med((1 to 3).map(_ => Stats.timed(g.adjacency().count())._2)), "s")
    m("graph.vertices") = (local.n.toDouble, "count")
    m("graph.edges") = (local.m.toDouble, "count")
    val kmaxOf = Peeling.inCoreness(local)
    m("graph.kmax") = (kmaxOf.max.toDouble, "count")

    // engine.SuperstepEngine, from the listener's job and stage spans
    val roundJobs = traces.flatMap(_._1.roundJobs)
    val roundMs = roundJobs.map(j => (j.end - j.start).toDouble)
    val stageSplit = traces.flatMap { case (l, _, _, _) =>
      l.roundJobs.flatMap { j =>
        val done = j.stageIds.flatMap(l.stages.get)
        done.find(_.id == j.stageIds.max).map { result =>
          val mapMs = done.filter(_ ne result).map(s => (s.completed - s.submitted).toDouble).sum
          val tasks = result.taskMs.map(_.toDouble).toSeq
          (mapMs, (result.completed - result.submitted).toDouble,
            if (tasks.isEmpty) 0.0 else tasks.max, if (tasks.isEmpty) 0.0 else med(tasks))
        }
      }
    }
    m("engine.round_jobs") = (med(traces.map(_._1.roundJobs.size.toDouble)), "count")
    m("engine.round_ms.p50") = (Stats.quantile(roundMs, 0.5), "ms")
    m("engine.round_ms.p90") = (Stats.quantile(roundMs, 0.9), "ms")
    m("engine.map_stage_ms.p50") = (med(stageSplit.map(_._1)), "ms")
    m("engine.compute_stage_ms.p50") = (med(stageSplit.map(_._2)), "ms")
    val gaps = traces.flatMap(_._1.driverGapsMs)
    m("engine.driver_gap_ms.p50") = (if (gaps.isEmpty) 0.0 else med(gaps), "ms")
    m("engine.remote_msgs") = (out.remote.toDouble, "count")
    m("engine.local_msgs") = (out.local.toDouble, "count")
    m("engine.local_share") = (out.local.toDouble / math.max(1L, out.local + out.remote), "ratio")
    m("engine.changed_per_msg") = (out.changed.toDouble / math.max(1L, out.local + out.remote), "ratio")
    m("engine.block_skew") = (stageSplit.map(_._3).sum / math.max(1e-9, stageSplit.map(_._4).sum), "ratio")

    // core.AnchoredCoreness / core.SkylineCoreness, from EngineMetrics
    val ph = counts.phaseRounds.map(_.toDouble)
    val pm = out.phaseMsgs.map(_.toDouble)
    def at(xs: Seq[Double], i: Int) = if (i < xs.size) xs(i) else 0.0
    val ac = !w.skyline
    for (i <- 0 until 3) {
      m(s"ac.phase${i + 1}.rounds") = (if (ac) at(ph, i) else 0.0, "count")
      m(s"ac.phase${i + 1}.msgs") = (if (ac) at(pm, i) else 0.0, "count")
    }
    m("ac.setup_msgs") = (out.setupMsgs.toDouble, "count")
    for ((p, i) <- Seq("init", "main").zipWithIndex) {
      m(s"sc.$p.rounds") = (if (ac) 0.0 else at(ph, i), "count")
      m(s"sc.$p.msgs") = (if (ac) 0.0 else at(pm, i), "count")
    }

    // Spark runtime, from the listener (per decomposition, median over reps)
    m("spark.task_cpu_s") = (perRep(_.cpuNs / 1e9), "s")
    m("spark.gc_s") = (med(traces.map(_._2)), "s")
    m("spark.shuffle_write_mb") = (perRep(_.shuffleBytes / MB), "MB")
    m("spark.shuffle_records") = (perRep(_.shuffleRecords.toDouble), "count")
    m("spark.shuffle_write_s") = (perRep(_.shuffleWriteNs / 1e9), "s")
    m("spark.task_deser_s") = (perRep(_.deserMs / 1e3), "s")
    m("spark.jobs") = (perRep(_.jobs.size.toDouble), "count")
    m("spark.tasks") = (perRep(_.tasks.toDouble), "count")
    m("spark.cached_mb") = (perRep(_.cachedPeak / MB), "MB")
    m("spark.spill_mb") = (perRep(_.spillBytes / MB), "MB")
    val floor = Probes.floorRoundMs(sc, local.ids, out.remote / math.max(1, counts.rounds), w.blocks)
    m("spark.floor_round_ms") = (floor, "ms")
    m("engine.round_over_floor") = (m("engine.round_ms.p50")._1 / floor, "ratio")

    // core.HIndex / DIndex on the workload's real inputs
    val multisets = Array.tabulate(local.n)(i => local.inN(i).map(u => kmaxOf(u)).toVector)
    val (hNs, _) = Probes.perCallNs(multisets, 0.3)(xs => HIndex.hIndex(xs))
    m("kernel.hindex_ns") = (hNs, "ns")
    val sky = peel.skyline
    val skyOf = Array.tabulate(local.n)(i => sky(local.ids(i)))
    val neighbourhoods = Array.tabulate(local.n)(i => (local.inN(i).toVector.flatMap(skyOf), local.outN(i).toVector.flatMap(skyOf)))
    val (dNs, _) = Probes.perCallNs(neighbourhoods, 0.3) { case (rin, rout) => DIndex(rin, rout).size }
    m("kernel.dindex_us") = (dNs / 1e3, "us")

    // engine.Partitioners: the HASH placement the workload runs on
    val part = Partitioners.hash(w.blocks)
    m("partition.cut_fraction") = (part.cutFraction(local.edges), "ratio")
    val sizes = part.blockSizes(local.ids.toSeq)
    m("partition.imbalance") = (sizes.max.toDouble / (sizes.sum.toDouble / sizes.length), "ratio")

    // core.Peeling, the single-machine comparator
    m("peeling.decompose_s") = (med((1 to 3).map(_ => Stats.timed(Peeling.decompose(local))._2)), "s")
    m("peeling.delete_steps") = (peel.stats.deleteSteps.toDouble, "count")

    // Tracing overhead: compare trace.decompose_s with the untraced run's
    // decompose_s; the listener's own time is its share of the bus thread.
    val tracedS = traces.map(_._4)
    m("trace.decompose_s") = (med(tracedS), "s")
    m("trace.listener_ms") = (perRep(_.selfNs / 1e6), "ms")
    m("trace.overhead") = (med(traces.map(t => t._1.selfNs / 1e9 / t._4)), "ratio")
  }
}

/** Just enough JSON for the result line. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    } + "\""
  def num(d: Double): String = if (d.isNaN || d.isInfinite) "null" else d.toString
  def obj(kv: Seq[(String, String)]): String = kv.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
