package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.storage.StorageLevel

import repro.engine._

/** Directional n-order H-index fixpoint (Defs. 4.2/4.3, Alg. 2).
  *
  * For `Direction.In`: value starts at the in-degree, feeders are the
  * in-neighbors and updates are pushed to out-neighbors; the fixpoint is
  * kmax(v) (Thm. 4.1). For `Direction.Out` the roles flip and the fixpoint
  * is lmax(v) = max{l : v in (0,l)-core} (Thm. 5.2).
  */
object HIndexProgram {
  sealed trait Direction
  case object In extends Direction
  case object Out extends Direction

  final case class HState(value: Int, feederVals: Map[Long, Int])

  def apply(dir: Direction): VertexProgram[VertexAdj, HState, (Long, Int)] =
    new VertexProgram[VertexAdj, HState, (Long, Int)] {
      private def feeders(a: VertexAdj): Array[Long] = dir match {
        case In  => a.inN
        case Out => a.outN
      }
      private def receivers(a: VertexAdj): Array[Long] = dir match {
        case In  => a.outN
        case Out => a.inN
      }

      def initialState(vid: Long, a: VertexAdj): HState =
        HState(feeders(a).length, Map.empty)

      def initialMessages(vid: Long, a: VertexAdj, s: HState): Iterator[(Long, (Long, Int))] =
        receivers(a).iterator.map(t => (t, (vid, s.value)))

      def compute(vid: Long, a: VertexAdj, s: HState, msgs: Seq[(Long, Int)]): (HState, Iterator[(Long, (Long, Int))], Boolean) = {
        val fv = s.feederVals ++ msgs
        val h = HIndex.hIndex(feeders(a).iterator.map(u => fv.getOrElse(u, 0)).toSeq)
        val v2 = math.min(s.value, h)
        val changed = v2 < s.value
        val out =
          if (changed) receivers(a).iterator.map(t => (t, (vid, v2)))
          else Iterator.empty
        (HState(v2, fv), out, changed)
      }
    }
}

/** The anchored-coreness distributed algorithm (Alg. 1, Sec. 4): Phase I
  * computes kmax(v); Phase II the upper bounds lupp(k,v) for all k in batch;
  * Phase III refines them to the exact lmax(k,v).
  */
object AnchoredCoreness {

  /** Adjacency enriched with each neighbor's kmax — what Phases II/III see. */
  final case class AdjK(inN: Array[(Long, Int)], outN: Array[(Long, Int)], kmax: Int)

  final case class Phase2State(oh: Array[Int], nbr: Map[Long, Array[Int]])
  final case class Phase3State(l: Array[Int], nbr: Map[Long, Array[Int]])

  /** Phase II (Alg. 3): batch n-order out-H-index on every G[k],
    * k in [0, kmax(v)]. Following the paper's own Table-1 trace, the 0-order
    * value is the out-degree in G (an upper bound of the G[k] out-degree;
    * both initialisations share the fixpoint — DESIGN.md §7).
    */
  private object Phase2Program extends VertexProgram[AdjK, Phase2State, (Long, Array[Int])] {
    def initialState(vid: Long, a: AdjK): Phase2State =
      Phase2State(Array.fill(a.kmax + 1)(a.outN.length), Map.empty)

    def initialMessages(vid: Long, a: AdjK, s: Phase2State): Iterator[(Long, (Long, Array[Int]))] =
      a.inN.iterator.map { case (t, _) => (t, (vid, s.oh)) }

    def compute(vid: Long, a: AdjK, s: Phase2State, msgs: Seq[(Long, Array[Int])]): (Phase2State, Iterator[(Long, (Long, Array[Int]))], Boolean) = {
      val nbr = s.nbr ++ msgs
      val oh2 = new Array[Int](a.kmax + 1)
      var changed = false
      var k = 0
      while (k <= a.kmax) {
        // Out-neighbors still in G[k] (their kmax >= k) feed the H-index.
        val vals = a.outN.iterator.collect {
          case (u, ku) if ku >= k => nbr.get(u).map(arr => arr(math.min(k, arr.length - 1))).getOrElse(Int.MaxValue)
        }.toSeq
        val h = HIndex.hIndex(vals.map(v => if (v == Int.MaxValue) a.outN.length else v))
        oh2(k) = math.min(s.oh(k), h)
        if (oh2(k) < s.oh(k)) changed = true
        k += 1
      }
      val out =
        if (changed) a.inN.iterator.map { case (t, _) => (t, (vid, oh2)) }
        else Iterator.empty
      (Phase2State(oh2, nbr), out, changed)
    }
  }

  /** Phase III (Alg. 4): decrement lupp(k,v) while Theorem 4.3's support
    * conditions fail — fewer than k in-neighbors (resp. lupp(k,v)
    * out-neighbors) in G[k] holding bounds >= lupp(k,v). `selfWake` because
    * the condition depends on v's own bound: one decrement may expose the
    * need for another even with no new inbound messages.
    */
  private object Phase3Program extends VertexProgram[(AdjK, Array[Int]), Phase3State, (Long, Array[Int])] {
    override def selfWake: Boolean = true

    def initialState(vid: Long, c: (AdjK, Array[Int])): Phase3State =
      Phase3State(c._2.clone(), Map.empty)

    private def targets(a: AdjK): Iterator[Long] =
      (a.inN.iterator.map(_._1) ++ a.outN.iterator.map(_._1)).toSet.iterator

    def initialMessages(vid: Long, c: (AdjK, Array[Int]), s: Phase3State): Iterator[(Long, (Long, Array[Int]))] =
      targets(c._1).map(t => (t, (vid, s.l)))

    def compute(vid: Long, c: (AdjK, Array[Int]), s: Phase3State, msgs: Seq[(Long, Array[Int])]): (Phase3State, Iterator[(Long, (Long, Array[Int]))], Boolean) = {
      val a = c._1
      val nbr = s.nbr ++ msgs
      val l2 = s.l.clone()
      var changed = false
      var k = 0
      while (k <= a.kmax) {
        if (l2(k) > 0) {
          val threshold = l2(k)
          var cntIn = 0
          a.inN.foreach { case (u, ku) =>
            if (ku >= k && nbr.get(u).exists(arr => k < arr.length && arr(k) >= threshold)) cntIn += 1
          }
          var cntOut = 0
          a.outN.foreach { case (u, ku) =>
            if (ku >= k && nbr.get(u).exists(arr => k < arr.length && arr(k) >= threshold)) cntOut += 1
          }
          if (cntIn < k || cntOut < threshold) {
            l2(k) = threshold - 1
            changed = true
          }
        }
        k += 1
      }
      val out =
        if (changed) targets(a).map(t => (t, (vid, l2)))
        else Iterator.empty
      (Phase3State(l2, nbr), out, changed)
    }
  }

  final case class ACRun(
      /** vid -> array a with a(k) = lmax(k, v), k in [0, kmax(v)] */
      lmax: RDD[(Long, Array[Int])],
      kmax: RDD[(Long, Int)],
      phase1: EngineMetrics,
      phase2: EngineMetrics,
      phase3: EngineMetrics,
      /** one-off kmax exchange before Phase II (2 msgs/edge; cut edges only
        * in block-centric mode) */
      setupMessages: Long
  ) {
    def totalRounds: Int = phase1.rounds + phase2.rounds + phase3.rounds
    def totalMessages: Long = phase1.totalMessages + phase2.totalMessages + phase3.totalMessages + setupMessages
    def skyline: RDD[(Long, Vector[(Int, Int)])] = lmax.mapValues(Coreness.skylineOfAnchored)
  }

  final case class Trace(
      phase1: Vector[Map[Long, Int]],
      phase2: Vector[Map[Long, Array[Int]]],
      phase3: Vector[Map[Long, Array[Int]]]
  )

  /** Run the full AC decomposition. `mode` selects AC-V vs AC-B. */
  def run(
      g: DirectedGraph,
      mode: EngineMode,
      maxRounds: Int = 5000,
      traceSink: Option[Trace => Unit] = None
  ): ACRun = {
    val adj = g.adjacency().persist(StorageLevel.MEMORY_AND_DISK)
    adj.count()

    val t1 = Vector.newBuilder[Map[Long, Int]]
    val t2 = Vector.newBuilder[Map[Long, Array[Int]]]
    val t3 = Vector.newBuilder[Map[Long, Array[Int]]]
    val tracing = traceSink.isDefined

    // ---- Phase I: kmax(v) via the in-H-index fixpoint.
    val p1 = SuperstepEngine.run(
      adj,
      HIndexProgram(HIndexProgram.In),
      mode,
      maxRounds,
      onRoundEnd = (_: Int, st: RDD[(Long, HIndexProgram.HState)]) =>
        if (tracing) t1 += st.mapValues(_.value).collect().toMap
    )
    val kmaxRDD = p1.states.mapValues(_.value).persist(StorageLevel.MEMORY_AND_DISK)

    // ---- kmax exchange: every vertex tells each neighbor its kmax so that
    // G[k] membership is locally checkable (one-off setup broadcast).
    val requests = adj.flatMap { case (v, a) =>
      a.inN.iterator.map(u => (u, (v, 0: Byte))) ++ a.outN.iterator.map(u => (u, (v, 1: Byte)))
    }
    val withK = requests.join(kmaxRDD).map { case (u, ((v, dir), ku)) => (v, (u, dir, ku)) }
    val adjK: RDD[(Long, AdjK)] = withK
      .groupByKey(adj.getNumPartitions)
      .join(kmaxRDD)
      .mapValues { case (entries, ownK) =>
        val in  = entries.iterator.collect { case (u, 0, ku) => (u, ku) }.toArray.sortBy(_._1)
        val out = entries.iterator.collect { case (u, 1, ku) => (u, ku) }.toArray.sortBy(_._1)
        AdjK(in, out, ownK)
      }
      .persist(StorageLevel.MEMORY_AND_DISK)
    val setupMessages: Long = mode match {
      case VertexCentric(_) => 2L * g.numEdges
      case BlockCentric(assign, _) =>
        import g.edges.sparkSession.implicits._
        2L * g.edges.as[(Long, Long)].rdd.filter { case (s, d) => assign(s) != assign(d) }.count()
    }

    // ---- Phase II: upper bounds lupp(k, v).
    val p2 = SuperstepEngine.run(
      adjK,
      Phase2Program,
      mode,
      maxRounds,
      onRoundEnd = (_: Int, st: RDD[(Long, Phase2State)]) =>
        if (tracing) t2 += st.mapValues(_.oh).collect().toMap
    )
    val lupp = p2.states.mapValues(_.oh).persist(StorageLevel.MEMORY_AND_DISK)

    // ---- Phase III: refine to exact lmax(k, v).
    val ctx3 = adjK.join(lupp)
    val p3 = SuperstepEngine.run(
      ctx3,
      Phase3Program,
      mode,
      maxRounds,
      onRoundEnd = (_: Int, st: RDD[(Long, Phase3State)]) =>
        if (tracing) t3 += st.mapValues(_.l).collect().toMap
    )
    val lmax = p3.states.mapValues(_.l).persist(StorageLevel.MEMORY_AND_DISK)
    lmax.count()

    traceSink.foreach(sink => sink(Trace(t1.result(), t2.result(), t3.result())))
    adj.unpersist(blocking = false)
    ACRun(lmax, kmaxRDD, p1.metrics, p2.metrics, p3.metrics, setupMessages)
  }

  /** kmax(v) for every vertex (Phase I only) — also the per-vertex
    * in-coreness used for Table 3's k_max column.
    */
  def inCoreness(g: DirectedGraph, mode: EngineMode): (RDD[(Long, Int)], EngineMetrics) = {
    val adj = g.adjacency()
    val r = SuperstepEngine.run(adj, HIndexProgram(HIndexProgram.In), mode)
    (r.states.mapValues(_.value), r.metrics)
  }

  /** lmax(v) = out-coreness (Theorem 5.2) — Table 3's l_max column. */
  def outCoreness(g: DirectedGraph, mode: EngineMode): (RDD[(Long, Int)], EngineMetrics) = {
    val adj = g.adjacency()
    val r = SuperstepEngine.run(adj, HIndexProgram(HIndexProgram.Out), mode)
    (r.states.mapValues(_.value), r.metrics)
  }
}
