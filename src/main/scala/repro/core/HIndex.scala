package repro.core

/** Pure combinatorial primitives shared by both decomposition algorithms:
  * the classic H-index, the skyline under the paper's dominance (Def. 5.1), the
  * two-dimensional D-index (Def. 5.3), and a staircase representation of
  * skyline (non-dominated) pair sets used for O(log s) dominance queries
  * (Optimization-1/2 of Sec. 5.3).
  */
object HIndex {

  /** H-index of a multiset: the largest h such that at least h elements are
    * >= h. `H({1,2,3,3,4,6}) = 3` (paper Sec. 4.2).
    */
  def hIndex(xs: Iterable[Int]): Int = {
    val arr = xs.toArray
    java.util.Arrays.sort(arr)
    // After ascending sort, h is the largest value with arr(n-h) >= h.
    var h = 0
    val n = arr.length
    var i = n - 1
    while (i >= 0 && arr(i) >= n - i) { h = n - i; i -= 1 }
    h
  }

}

/** Dominance over coreness pairs (Def. 5.1): `(k',l') <= (k,l)` iff
  * k' <= k and l' <= l.
  */
object Dominance {

  /** Reduce an arbitrary pair set to its skyline (maximal non-dominated
    * pairs), sorted by k descending (so l is strictly ascending).
    */
  def skyline(pairs: Iterable[(Int, Int)]): Vector[(Int, Int)] = {
    val sorted = pairs.toVector.distinct.sortBy { case (k, l) => (-k, -l) }
    val out = Vector.newBuilder[(Int, Int)]
    var bestL = -1
    for ((k, l) <- sorted) if (l > bestL) { out += ((k, l)); bestL = l }
    out.result()
  }
}

/** A skyline set of (k,l) pairs stored as a staircase: pairs sorted by k
  * descending, l strictly ascending. Supports the dominance query needed by
  * Algorithm 6 — "does this set contain a pair (k',l') with k' >= k and
  * l' >= l?" — in O(log s).
  */
final case class SkylineSet(pairs: Vector[(Int, Int)]) {
  require(
    pairs.zip(pairs.drop(1)).forall { case ((k1, l1), (k2, l2)) => k1 > k2 && l1 < l2 },
    s"not a staircase: $pairs"
  )

  def isEmpty: Boolean = pairs.isEmpty
  def maxK: Int = if (pairs.isEmpty) 0 else pairs.head._1
  def maxL: Int = if (pairs.isEmpty) 0 else pairs.last._2

  /** True iff some pair (k',l') in the set satisfies k' >= k && l' >= l. */
  def dominatesOrEq(k: Int, l: Int): Boolean = {
    // Pairs are sorted by k desc; the prefix with k' >= k has its max l at
    // the *last* element of the prefix (l ascends). Binary search the prefix
    // end, then compare that l.
    var lo = 0
    var hi = pairs.length // first index with k' < k
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (pairs(mid)._1 >= k) lo = mid + 1 else hi = mid
    }
    lo > 0 && pairs(lo - 1)._2 >= l
  }

  /** True iff every pair of `o` is dominated-or-equal by some pair of this
    * set. Both staircases run k descending, so one walk over this set's
    * pairs answers all of `o`'s.
    */
  def dominatesOrEq(o: SkylineSet): Boolean = {
    var i = 0 // pairs(0 until i) are those with k' >= the current k
    o.pairs.forall { case (k, l) =>
      while (i < pairs.length && pairs(i)._1 >= k) i += 1
      i > 0 && pairs(i - 1)._2 >= l
    }
  }
}

object SkylineSet {
  def of(pairs: Iterable[(Int, Int)]): SkylineSet = SkylineSet(Dominance.skyline(pairs))
}

/** D-index (Def. 5.3, Alg. 6 with Optimizations 1–2) of a vertex whose
  * in- and out-neighbours hold the given `SkylineSet`s: the skyline of all
  * (k,l) such that at least k in-neighbours and at least l out-neighbours
  * dominate-or-equal (k,l). k is capped by H({maxK of each in-neighbour}),
  * l by H({maxL of each out-neighbour}), and the `lmin` staircase prunes
  * dominated candidates. This is the kernel SC runs every superstep.
  */
object DIndex {

  def apply(in: Array[SkylineSet], out: Array[SkylineSet]): Vector[(Int, Int)] = {
    val kCap = HIndex.hIndex(in.map(_.maxK))
    val lCap = HIndex.hIndex(out.map(_.maxL))

    def count(sets: Array[SkylineSet], k: Int, l: Int): Int = {
      var c = 0
      var i = 0
      while (i < sets.length) { if (sets(i).dominatesOrEq(k, l)) c += 1; i += 1 }
      c
    }
    def supports(k: Int, l: Int): Boolean = count(in, k, l) >= k && count(out, k, l) >= l

    val res = Vector.newBuilder[(Int, Int)]
    var lmin = 0
    var emitted = false
    var k = kCap
    while (k >= 0) {
      var l = lCap
      var found = false
      while (l > lmin && !found) {
        if (supports(k, l)) { res += ((k, l)); lmin = l; found = true }
        l -= 1
      }
      // l = 0 candidates: only the largest supported k matters (see DESIGN.md
      // §7 — Alg. 6 as printed skips l=0, but skyline pairs like (2,0) exist).
      if (!found && !emitted && lmin == 0 && k > 0 && supports(k, 0)) {
        res += ((k, 0)); found = true
      }
      if (found) emitted = true
      k -= 1
    }
    val d = res.result()
    if (d.isEmpty) Vector((0, 0)) else d
  }

  /** D-index of two pair sets, each pair standing for one neighbour. */
  def apply(rin: Iterable[(Int, Int)], rout: Iterable[(Int, Int)]): Vector[(Int, Int)] =
    apply(rin.iterator.map(p => SkylineSet(Vector(p))).toArray, rout.iterator.map(p => SkylineSet(Vector(p))).toArray)
}
