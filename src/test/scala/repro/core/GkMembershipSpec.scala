package repro.core

import repro.engine._

/** AC's Phases II/III read G[k] membership from the length of each
  * neighbour's array instead of from a kmax exchange before Phase II.
  * Property: on every graph and in every mode, each phase's values and
  * per-round metrics equal those of a reference that reads each neighbour's
  * true kmax (from `Peeling`), as Algs. 3–4 are written, and AC sends no
  * message outside its three phases.
  */
class GkMembershipSpec extends DifferentialSpec {
  import GkMembershipSpec._

  private def check(edges: Seq[(Long, Long)]): Unit = {
    val g = DirectedGraph.fromEdgeList(spark, edges, numPartitions = 2)
    val lg = g.toLocal
    val kmax = lg.ids.zip(Peeling.inCoreness(lg)).toMap
    val ctx = g.adjacency().map { case (v, a) => v -> Ref(a, a.inN.map(kmax), a.outN.map(kmax), kmax(v)) }.cache()
    def arrays(t: Vector[Map[Long, Array[Int]]]) = t.map(_.view.mapValues(_.toVector).toMap)
    for ((name, mode) <- modes(edges)) {
      val label = s"$name on $edges"
      val ac = AnchoredCoreness.run(g, mode, trace = true)
      val (v2, m2, s2) = trajectory(ctx, RefPhase2, mode)
      val (v3, m3, _) = trajectory(s2.mapValues { case (c, s) => (c, s.value) }, RefPhase3, mode)
      assert(arrays(ac.trace.phase2) == arrays(v2), s"Phase II values/$label")
      assert(ac.phase2 == m2, s"Phase II metrics/$label")
      assert(arrays(ac.trace.phase3) == arrays(v3), s"Phase III values/$label")
      assert(ac.phase3 == m3, s"Phase III metrics/$label")
      assert(ac.setupMessages == 0L, label)
      assert(ac.totalMessages == ac.phase1.totalMessages + m2.totalMessages + m3.totalMessages, label)
    }
    ctx.unpersist()
  }

  test("degenerate graphs: empty, single edge, 2-cycles, stars, clique, DAG and negative ids") {
    degenerate.foreach(check)
  }

  test("generated graphs, ids negative and above 2^31 included") {
    forGenerated(check)
  }
}

object GkMembershipSpec {

  /** Adjacency with each neighbour's true kmax: `inK(i)` is that of
    * `adj.inN(i)`, `outK(i)` that of `adj.outN(i)`.
    */
  final case class Ref(adj: VertexAdj, inK: Array[Int], outK: Array[Int], kmax: Int)

  /** Alg. 3, with the out-neighbours in G[k] picked by their kmax. */
  object RefPhase2 extends NeighbourFixpoint[Ref, Array[Int]] {
    def inN(a: Ref): Array[Long] = Array.emptyLongArray
    def outN(a: Ref): Array[Long] = a.adj.outN
    def receivers(a: Ref, s: NeighbourFixpoint.State[Array[Int]], round: Int): Array[Long] = a.adj.inN
    def init(vid: Long, a: Ref): Array[Int] = Array.fill(a.kmax + 1)(a.adj.outDeg)
    def update(a: Ref, oh: Array[Int], in: Array[Array[Int]], out: Array[Array[Int]]): Option[Array[Int]] = {
      val oh2 = Array.tabulate(a.kmax + 1) { k =>
        math.min(oh(k), HIndex.hIndex(out.indices.collect { case j if a.outK(j) >= k => out(j)(k) }))
      }
      if (oh2.sameElements(oh)) None else Some(oh2)
    }
  }

  /** Alg. 4 as AC runs it, with the neighbours in G[k] picked by their kmax. */
  object RefPhase3 extends NeighbourFixpoint[(Ref, Array[Int]), Array[Int]] {
    def inN(c: (Ref, Array[Int])): Array[Long] = c._1.adj.inN
    def outN(c: (Ref, Array[Int])): Array[Long] = c._1.adj.outN
    def receivers(c: (Ref, Array[Int]), s: NeighbourFixpoint.State[Array[Int]], round: Int): Array[Long] =
      c._1.adj.distinctNeighbors
    def init(vid: Long, c: (Ref, Array[Int])): Array[Int] = c._2
    def update(c: (Ref, Array[Int]), l: Array[Int], in: Array[Array[Int]], out: Array[Array[Int]]): Option[Array[Int]] = {
      def support(bounds: Array[Array[Int]], ks: Array[Int], k: Int, t: Int): Int =
        bounds.indices.count(j => ks(j) >= k && bounds(j)(k) >= t)
      val l2 = Array.tabulate(l.length) { k =>
        var t = l(k)
        while (t > 0 && (support(in, c._1.inK, k, t) < k || support(out, c._1.outK, k, t) < t)) t -= 1
        t
      }
      if (l2.sameElements(l)) None else Some(l2)
    }
  }
}
