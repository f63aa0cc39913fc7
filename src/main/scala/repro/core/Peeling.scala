package repro.core

import scala.collection.mutable

/** The peeling-based D-core decomposition baseline (Fang et al. [13], as
  * distributed in the paper's Sec. 6 with a single coordinator holding
  * global state).
  *
  * For each k from 0 to kmax(G):
  *   1. start from the (k,0)-core (all v with in-coreness >= k);
  *   2. peel by out-degree with a bucket queue, cascading both the
  *      out-degree <= level and the in-degree < k violations, assigning
  *      lmax(k, v) = level at removal.
  *
  * Level-L invariant: when bucket L opens, the alive set is exactly the
  * (k, L)-core; every vertex removed while at level L is in the (k,L)-core
  * but not the (k,L+1)-core, so lmax(k, v) = L.
  *
  * This is inherently sequential — each deletion depends on the previous
  * one — which is exactly why the paper replaces it. `PeelingStats` models
  * the coordinator traffic of the distributed version: one degree report
  * per live vertex per k, plus one update message per degree change.
  */
object Peeling {

  final case class PeelingStats(deleteSteps: Long, messages: Long)

  final case class Result(
      /** a(k) = lmax(k,v), k in [0, kmax(v)] */
      anchored: Map[Long, Array[Int]],
      stats: PeelingStats
  ) {
    def kmax: Map[Long, Int] = anchored.view.mapValues(_.length - 1).toMap
    def skyline: Map[Long, Vector[(Int, Int)]] = anchored.view.mapValues(Coreness.skylineOfAnchored).toMap
  }

  /** In-coreness of every vertex: classic k-core peeling on in-degree only
    * (out-degree unconstrained) — equals kmax(v) of Def. 4.1 / Thm. 4.1.
    */
  def inCoreness(g: LocalGraph): Array[Int] = directionalCoreness(g, peelIn = true)

  /** Out-coreness: lmax(v) = max l with v in (0,l)-core (Theorem 5.2). */
  def outCoreness(g: LocalGraph): Array[Int] = directionalCoreness(g, peelIn = false)

  private def directionalCoreness(g: LocalGraph, peelIn: Boolean): Array[Int] = {
    val n = g.n
    if (n == 0) return Array.empty
    val deg = Array.tabulate(n)(i => if (peelIn) g.inDeg(i) else g.outDeg(i))
    val maxDeg = deg.max
    // Bucket peeling (Batagelj–Zaversnik) with lazy deletion: a vertex may
    // have stale entries in higher buckets; the freshest entry is at its
    // current degree, which never drops below the scan level.
    val buckets = Array.fill(maxDeg + 1)(mutable.ArrayDeque.empty[Int])
    for (i <- 0 until n) buckets(deg(i)) += i
    val core = new Array[Int](n)
    val removed = Array.fill(n)(false)
    var level = 0
    var processed = 0
    while (processed < n) {
      while (level <= maxDeg && buckets(level).isEmpty) level += 1
      val v = buckets(level).removeHead()
      if (!removed(v)) {
        if (deg(v) > level) buckets(deg(v)) += v // stale entry; re-file
        else {
          removed(v) = true
          core(v) = level
          processed += 1
          // Peers that counted v lose one peel-degree: for in-peel these are
          // v's out-neighbors (v was their in-neighbor).
          val affected = if (peelIn) g.outN(v) else g.inN(v)
          for (w <- affected) if (!removed(w) && deg(w) > level) {
            deg(w) -= 1
            buckets(deg(w)) += w
          }
        }
      }
    }
    core
  }

  /** Full anchored-coreness decomposition (the Peeling competitor).
    *
    * @param budgetMillis wall-clock budget; a `None` result means the budget
    *        was exceeded (the paper's "INF" after 5 days).
    */
  def decompose(g: LocalGraph, budgetMillis: Long = Long.MaxValue): Option[Result] = {
    val start = System.nanoTime()
    def withinBudget: Boolean = (System.nanoTime() - start) / 1000000L <= budgetMillis
    val n = g.n
    if (n == 0) return Some(Result(Map.empty, PeelingStats(0, 0)))
    val km = inCoreness(g)
    val kMaxG = km.max
    var deleteSteps = 0L
    var messages = 0L
    val anchored = Array.fill(n)(mutable.ArrayBuffer.empty[Int])

    var k = 0
    while (k <= kMaxG) {
      if (!withinBudget) return None
      // --- (k,0)-core = vertices with in-coreness >= k.
      val alive = Array.tabulate(n)(i => km(i) >= k)
      val ind = new Array[Int](n)
      val outd = new Array[Int](n)
      var remaining = 0
      for (i <- 0 until n if alive(i)) {
        ind(i) = g.inN(i).count(alive)
        outd(i) = g.outN(i).count(alive)
        remaining += 1
      }
      // Coordinator collects one degree report per live vertex per k-round.
      messages += remaining

      val maxOut = if (remaining == 0) 0 else (0 until n).iterator.filter(alive).map(outd).max
      val buckets = Array.fill(maxOut + 1)(mutable.ArrayDeque.empty[Int])
      for (i <- 0 until n if alive(i)) buckets(outd(i)) += i
      var level = 0

      // Remove `seed` and everything it cascades at this level. A cascaded
      // vertex either lost out-degree down to <= level or in-degree below k;
      // in both cases lmax(k, ·) = level.
      def removeCascade(seed: Int, lvl: Int): Unit = {
        val queue = mutable.Queue(seed)
        while (queue.nonEmpty) {
          val x = queue.dequeue()
          if (alive(x)) {
            alive(x) = false
            remaining -= 1
            deleteSteps += 1
            anchored(x) += lvl
            for (u <- g.inN(x)) if (alive(u)) {
              outd(u) -= 1
              messages += 1
              if (outd(u) <= lvl) queue += u
              else buckets(outd(u)) += u
            }
            for (w <- g.outN(x)) if (alive(w)) {
              ind(w) -= 1
              messages += 1
              if (ind(w) < k) queue += w
            }
          }
        }
      }

      while (remaining > 0 && withinBudget) {
        while (level <= maxOut && buckets(level).isEmpty) level += 1
        require(level <= maxOut, s"peeling scan overran buckets at k=$k")
        val v = buckets(level).removeHead()
        if (alive(v)) {
          if (outd(v) > level) buckets(outd(v)) += v // stale entry; re-file
          else removeCascade(v, level)
        }
      }
      if (!withinBudget) return None
      k += 1
    }
    val res = (0 until n).map(i => g.ids(i) -> anchored(i).toArray).toMap
    Some(Result(res, PeelingStats(deleteSteps, messages)))
  }
}
