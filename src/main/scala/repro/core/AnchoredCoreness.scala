package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.storage.StorageLevel

import scala.collection.mutable

import repro.engine._

/** The n-order H-index fixpoints (Defs. 4.2/4.3, Alg. 2), one per
  * direction. Only the feeders' side of the neighbour table is kept.
  */
object HIndexProgram {

  /** The in-H-index: the value starts at the in-degree, feeders are the
    * in-neighbours and updates go to the out-neighbours; the fixpoint is
    * kmax(v) (Thm. 4.1). Each value is paired with the sender's out-degree,
    * which never changes. Round 0 reaches every out-neighbour, so after the
    * run a vertex's `in(i)` holds the kmax and the out-degree of `inN(i)`:
    * the reader caps `Out` needs, learnt from messages the run sends anyway.
    */
  val In: NeighbourFixpoint[VertexAdj, (Int, Int)] =
    new NeighbourFixpoint[VertexAdj, (Int, Int)] {
      def inN(a: VertexAdj): Array[Long] = a.inN
      def outN(a: VertexAdj): Array[Long] = Array.emptyLongArray
      def receivers(a: VertexAdj): Array[Long] = a.outN
      def init(vid: Long, a: VertexAdj): (Int, Int) = (a.inDeg, a.outDeg)
      def update(a: VertexAdj, v: (Int, Int), in: Array[(Int, Int)], out: Array[(Int, Int)]): Option[(Int, Int)] = {
        val h = HIndex.hIndex(in.map(_._1))
        if (h < v._1) Some((h, v._2)) else None
      }
    }

  /** The out-H-index given each in-neighbour's out-degree: `c._2(i)` is that
    * of `c._1.inN(i)`. The value starts at the out-degree, feeders are the
    * out-neighbours and updates go to the in-neighbours; the fixpoint is
    * lmax(v) = max{l : v in (0,l)-core} (Thm. 5.2). A reader with d
    * out-neighbours computes an H-index of at most d, so every value >= d
    * counts as d, which is its initial value and so what the engine prefills
    * its slots with. A value h therefore goes only to the in-neighbours with
    * more than h out-neighbours; every round's values stay those of Alg. 2,
    * which sends each value to every reader (DESIGN.md §7).
    */
  val Out: NeighbourFixpoint[(VertexAdj, Array[Int]), Int] =
    new NeighbourFixpoint[(VertexAdj, Array[Int]), Int] {
      def inN(c: (VertexAdj, Array[Int])): Array[Long] = Array.emptyLongArray
      def outN(c: (VertexAdj, Array[Int])): Array[Long] = c._1.outN
      def receivers(c: (VertexAdj, Array[Int])): Array[Long] = c._1.inN
      override def receivers(c: (VertexAdj, Array[Int]), s: NeighbourFixpoint.State[Int], round: Int): Array[Long] = {
        val (readers, caps, h) = (c._1.inN, c._2, s.value)
        val b = Array.newBuilder[Long]
        var i = 0
        while (i < readers.length) {
          if (caps(i) > h) b += readers(i)
          i += 1
        }
        b.result()
      }
      def init(vid: Long, c: (VertexAdj, Array[Int])): Int = c._1.outDeg
      def update(c: (VertexAdj, Array[Int]), value: Int, in: Array[Int], out: Array[Int]): Option[Int] = {
        val h = HIndex.hIndex(out)
        if (h < value) Some(h) else None
      }
    }
}

/** The anchored-coreness distributed algorithm (Alg. 1, Sec. 4): Phase I
  * computes kmax(v); Phase II the upper bounds lupp(k,v) for all k in batch;
  * Phase III refines them to the exact lmax(k,v).
  */
object AnchoredCoreness {

  /** Adjacency and the vertex's own kmax — what Phases II/III see. A
    * neighbour's kmax is only needed to test whether it is in G[k], and its
    * Phase II/III arrays run to its kmax, so it is in G[k] iff its array in
    * the tables is longer than k. Both phases send every value to every
    * reader, so round 0 writes each slot with the neighbour's own array
    * before `update` first runs (DESIGN.md §7).
    */
  final case class AdjK(adj: VertexAdj, kmax: Int)

  /** Phase II (Alg. 3): batch n-order out-H-index on every G[k],
    * k in [0, kmax(v)]. Following the paper's own Table-1 trace, the 0-order
    * value is the out-degree in G (an upper bound of the G[k] out-degree;
    * both initialisations share the fixpoint — DESIGN.md §7).
    */
  private object Phase2Program extends NeighbourFixpoint[AdjK, Array[Int]] {
    def inN(a: AdjK): Array[Long] = Array.emptyLongArray
    def outN(a: AdjK): Array[Long] = a.adj.outN
    def receivers(a: AdjK): Array[Long] = a.adj.inN
    def init(vid: Long, a: AdjK): Array[Int] = Array.fill(a.kmax + 1)(a.adj.outDeg)

    def update(a: AdjK, oh: Array[Int], in: Array[Array[Int]], out: Array[Array[Int]]): Option[Array[Int]] = {
      val oh2 = Array.tabulate(a.kmax + 1) { k =>
        // Out-neighbors still in G[k] (their arrays hold an entry for k) feed
        // the H-index.
        val h = HIndex.hIndex(out.collect { case o if o.length > k => o(k) })
        math.min(oh(k), h)
      }
      if (oh2.sameElements(oh)) None else Some(oh2)
    }
  }

  /** Phase III (Alg. 4): lower lupp(k,v) while Theorem 4.3's support
    * conditions fail — fewer than k in-neighbors (resp. lupp(k,v)
    * out-neighbors) in G[k] holding bounds >= lupp(k,v). Both counts fall as
    * the bound rises, so one `update` settles each bound at the largest value
    * the current tables allow.
    */
  private object Phase3Program extends NeighbourFixpoint[(AdjK, Array[Int]), Array[Int]] {
    def inN(c: (AdjK, Array[Int])): Array[Long] = c._1.adj.inN
    def outN(c: (AdjK, Array[Int])): Array[Long] = c._1.adj.outN
    def receivers(c: (AdjK, Array[Int])): Array[Long] = c._1.adj.distinctNeighbors
    def init(vid: Long, c: (AdjK, Array[Int])): Array[Int] = c._2

    /** Neighbors in G[k] (their arrays hold an entry for k) whose bound at k
      * is at least `threshold`.
      */
    private def support(bounds: Array[Array[Int]], k: Int, threshold: Int): Int = {
      var c = 0
      var j = 0
      while (j < bounds.length) {
        if (bounds(j).length > k && bounds(j)(k) >= threshold) c += 1
        j += 1
      }
      c
    }

    def update(c: (AdjK, Array[Int]), l: Array[Int], in: Array[Array[Int]], out: Array[Array[Int]]): Option[Array[Int]] = {
      val l2 = Array.tabulate(l.length) { k =>
        var t = l(k)
        while (t > 0 && (support(in, k, t) < k || support(out, k, t) < t)) t -= 1
        t
      }
      if (l2.sameElements(l)) None else Some(l2)
    }
  }

  final case class ACRun(
      /** vid -> array a with a(k) = lmax(k, v), k in [0, kmax(v)] */
      lmax: RDD[(Long, Array[Int])],
      kmax: RDD[(Long, Int)],
      phase1: EngineMetrics,
      phase2: EngineMetrics,
      phase3: EngineMetrics
  ) {
    def totalRounds: Int = phase1.rounds + phase2.rounds + phase3.rounds
    def totalMessages: Long = phase1.totalMessages + phase2.totalMessages + phase3.totalMessages

    /** Messages sent outside the three phases: none, since Phases II/III
      * read G[k] membership from their own messages (`AdjK`).
      */
    def setupMessages: Long = 0L
    def skyline: RDD[(Long, Vector[(Int, Int)])] = lmax.mapValues(Coreness.skylineOfAnchored)
  }

  final case class Trace(
      phase1: Vector[Map[Long, Int]],
      phase2: Vector[Map[Long, Array[Int]]],
      phase3: Vector[Map[Long, Array[Int]]]
  )

  /** Run the full AC decomposition. `mode` selects AC-V vs AC-B. Each run
    * starts from the previous run's vertices, so no phase re-joins the adjacency.
    */
  def run(
      g: DirectedGraph,
      mode: EngineMode,
      maxRounds: Int = 5000,
      traceSink: Option[Trace => Unit] = None
  ): ACRun = {
    val t1 = Vector.newBuilder[Map[Long, (Int, Int)]]
    val t2 = Vector.newBuilder[Map[Long, Array[Int]]]
    val t3 = Vector.newBuilder[Map[Long, Array[Int]]]
    // Only a traced run observes its rounds; otherwise the engine builds no
    // per-round view.
    def record[V](into: mutable.Builder[Map[Long, V], _]): Option[RDD[(Long, V)] => Unit] =
      traceSink.map(_ => values => into += values.collect().toMap)

    // ---- Phase I: kmax(v) via the in-H-index fixpoint.
    val p1 = SuperstepEngine.run(
      g.adjacency(),
      HIndexProgram.In,
      mode,
      maxRounds,
      onRoundEnd = record(t1)
    )

    // ---- Phase II: upper bounds lupp(k, v).
    val p2 = SuperstepEngine.run(
      p1.vertices.mapValues { case (a, s) => AdjK(a, s.value._1) },
      Phase2Program,
      mode,
      maxRounds,
      onRoundEnd = record(t2)
    )

    // ---- Phase III: refine to exact lmax(k, v).
    val p3 = SuperstepEngine.run(
      p2.vertices.mapValues { case (a, s) => (a, s.value) },
      Phase3Program,
      mode,
      maxRounds,
      onRoundEnd = record(t3)
    )
    val lmax = p3.values.persist(StorageLevel.MEMORY_AND_DISK)
    lmax.count()

    traceSink.foreach(sink => sink(Trace(t1.result().map(_.view.mapValues(_._1).toMap), t2.result(), t3.result())))
    ACRun(lmax, p1.values.mapValues(_._1), p1.metrics, p2.metrics, p3.metrics)
  }
}
