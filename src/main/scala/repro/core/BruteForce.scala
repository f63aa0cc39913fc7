package repro.core

import scala.collection.mutable

/** Definition-level oracle for D-cores: computes (k,l)-cores by cascading
  * deletion straight from Def. 3.1. Exponentially slower than `Peeling`
  * but independent of any cleverness — this is the ground truth that every
  * other implementation in the repo is tested against (on small graphs).
  */
object BruteForce {

  /** Vertex set (original ids) of the (k,l)-core of `g`; empty if none. */
  def dCore(g: LocalGraph, k: Int, l: Int): Set[Long] = {
    val alive = Array.fill(g.n)(true)
    val ind   = Array.tabulate(g.n)(g.inDeg)
    val outd  = Array.tabulate(g.n)(g.outDeg)
    val queue = mutable.Queue.empty[Int]
    for (i <- 0 until g.n) if (ind(i) < k || outd(i) < l) { alive(i) = false; queue += i }
    while (queue.nonEmpty) {
      val v = queue.dequeue()
      for (u <- g.inN(v)) if (alive(u)) {
        outd(u) -= 1
        if (outd(u) < l) { alive(u) = false; queue += u }
      }
      for (w <- g.outN(v)) if (alive(w)) {
        ind(w) -= 1
        if (ind(w) < k) { alive(w) = false; queue += w }
      }
    }
    (0 until g.n).iterator.filter(alive).map(g.ids).toSet
  }

  /** Max k with a non-empty (k,0)-core containing each vertex — i.e.
    * kmax(v) (Def. 4.1) — computed by probing every k. Tiny graphs only.
    */
  def kmax(g: LocalGraph): Map[Long, Int] = {
    val res = mutable.Map.empty[Long, Int]
    var k = 0
    var core = dCore(g, k, 0)
    while (core.nonEmpty) {
      core.foreach(v => res(v) = k)
      k += 1
      core = dCore(g, k, 0)
    }
    res.toMap
  }

  /** Entire anchored corenesses Φ(v) for all vertices: for each vertex an
    * array `a` with `a(k) = lmax(k, v)` for k in [0, kmax(v)].
    */
  def anchoredCorenesses(g: LocalGraph): Map[Long, Array[Int]] = {
    val km = kmax(g)
    val acc = mutable.Map.empty[Long, mutable.ArrayBuffer[Int]]
    km.keys.foreach(v => acc(v) = mutable.ArrayBuffer.empty[Int])
    val kMaxG = if (km.isEmpty) -1 else km.values.max
    for (k <- 0 to kMaxG) {
      // lmax(k, v): largest l with v in (k,l)-core, found by probing l upward.
      var l = 0
      var core = dCore(g, k, l)
      val lmax = mutable.Map.empty[Long, Int]
      while (core.nonEmpty) {
        core.foreach(v => lmax(v) = l)
        l += 1
        core = dCore(g, k, l)
      }
      for ((v, lm) <- lmax if km(v) >= k) acc(v) += lm
    }
    acc.view.mapValues(_.toArray).toMap
  }

  /** Skyline corenesses SC(v) (Def. 5.2), derived from Φ(v). */
  def skylineCorenesses(g: LocalGraph): Map[Long, Vector[(Int, Int)]] =
    anchoredCorenesses(g).view.mapValues(Coreness.skylineOfAnchored).toMap

  /** All non-empty D-cores as a map (k,l) -> vertex set. Tiny graphs only. */
  def allCores(g: LocalGraph): Map[(Int, Int), Set[Long]] = {
    val res = mutable.Map.empty[(Int, Int), Set[Long]]
    var k = 0
    var kCore = dCore(g, k, 0)
    while (kCore.nonEmpty) {
      var l = 0
      var core = dCore(g, k, l)
      while (core.nonEmpty) {
        res((k, l)) = core
        l += 1
        core = dCore(g, k, l)
      }
      k += 1
      kCore = dCore(g, k, 0)
    }
    res.toMap
  }
}
