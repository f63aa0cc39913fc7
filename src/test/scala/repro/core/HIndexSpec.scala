package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class HIndexSpec extends AnyFunSuite {
  import HIndex.hIndex

  test("paper example: H({1,2,3,3,4,6}) = 3") {
    assert(hIndex(Seq(1, 2, 3, 3, 4, 6)) == 3)
  }
  test("empty set has H-index 0") { assert(hIndex(Nil) == 0) }
  test("all zeros has H-index 0") { assert(hIndex(Seq(0, 0, 0)) == 0) }
  test("single large value has H-index 1") { assert(hIndex(Seq(100)) == 1) }
  test("single zero has H-index 0") { assert(hIndex(Seq(0)) == 0) }
  test("H of n copies of n is n") {
    for (n <- 1 to 10) assert(hIndex(Seq.fill(n)(n)) == n)
  }
  test("H of n copies of n-1 is n-1") {
    for (n <- 2 to 10) assert(hIndex(Seq.fill(n)(n - 1)) == n - 1)
  }
  test("H of 1..n is about n/2") {
    assert(hIndex(1 to 10) == 5)
    assert(hIndex(1 to 11) == 6)
    assert(hIndex(1 to 12) == 6)
  }
  test("order independence") {
    val rng = new Random(1)
    for (_ <- 1 to 20) {
      val xs = Seq.fill(30)(rng.nextInt(20))
      assert(hIndex(xs) == hIndex(rng.shuffle(xs)))
    }
  }
  test("H-index is bounded by size and max") {
    val rng = new Random(2)
    for (_ <- 1 to 50) {
      val xs = Seq.fill(1 + rng.nextInt(40))(rng.nextInt(30))
      val h = hIndex(xs)
      assert(h <= xs.size)
      assert(h <= xs.max)
      // definition check: at least h elements >= h; not h+1 elements >= h+1
      assert(xs.count(_ >= h) >= h)
      assert(xs.count(_ >= h + 1) < h + 1)
    }
  }
  test("H-index is monotone under element increase") {
    val rng = new Random(3)
    for (_ <- 1 to 30) {
      val xs = Seq.fill(15)(rng.nextInt(12))
      val i = rng.nextInt(xs.size)
      val ys = xs.updated(i, xs(i) + 1 + rng.nextInt(5))
      assert(hIndex(ys) >= hIndex(xs))
    }
  }
  test("H-index is monotone under element addition") {
    val rng = new Random(4)
    for (_ <- 1 to 30) {
      val xs = Seq.fill(15)(rng.nextInt(12))
      assert(hIndex(xs :+ rng.nextInt(12)) >= hIndex(xs))
    }
  }
}

class DominanceSpec extends AnyFunSuite {
  import Dominance._

  test("skyline of empty is empty") { assert(skyline(Nil).isEmpty) }
  test("skyline removes dominated pairs (paper v2 example)") {
    // Φ(v2) = {(0,2),(1,2),(2,2),(3,1)} -> SC(v2) = {(3,1),(2,2)}
    assert(skyline(Seq((0, 2), (1, 2), (2, 2), (3, 1))) == Vector((3, 1), (2, 2)))
  }
  test("skyline of chain keeps only top") {
    assert(skyline(Seq((1, 1), (2, 2), (3, 3))) == Vector((3, 3)))
  }
  test("skyline keeps incomparable pairs, ordered by k desc") {
    assert(skyline(Seq((1, 3), (3, 1), (2, 2))) == Vector((3, 1), (2, 2), (1, 3)))
  }
  test("skyline is a staircase and mutually non-dominated") {
    val rng = new Random(6)
    for (_ <- 1 to 40) {
      val pairs = Seq.fill(20)((rng.nextInt(8), rng.nextInt(8)))
      val sky = skyline(pairs)
      for (Seq((k1, l1), (k2, l2)) <- sky.sliding(2) if sky.size >= 2) {
        assert(k1 > k2 && l1 < l2)
      }
      // every input pair is dominated-or-equal by some skyline pair
      for ((k, l) <- pairs) assert(sky.exists { case (ks, ls) => k <= ks && l <= ls })
      // skyline pairs are drawn from the input
      assert(sky.forall(pairs.contains))
    }
  }
}

class SkylineSetSpec extends AnyFunSuite {
  test("empty set dominates nothing, has zero maxima") {
    val s = SkylineSet(Vector.empty)
    assert(!s.dominatesOrEq(0, 0))
    assert(s.maxK == 0 && s.maxL == 0)
  }
  test("singleton dominance") {
    val s = SkylineSet.of(Seq((2, 3)))
    assert(s.dominatesOrEq(2, 3)); assert(s.dominatesOrEq(0, 0)); assert(s.dominatesOrEq(2, 0))
    assert(!s.dominatesOrEq(3, 3)); assert(!s.dominatesOrEq(2, 4))
  }
  test("staircase dominance matches linear scan") {
    val rng = new Random(7)
    for (_ <- 1 to 60) {
      val pairs = Seq.fill(1 + rng.nextInt(10))((rng.nextInt(10), rng.nextInt(10)))
      val s = SkylineSet.of(pairs)
      for (k <- 0 to 11; l <- 0 to 11) {
        val expected = pairs.exists { case (ki, li) => ki >= k && li >= l }
        assert(s.dominatesOrEq(k, l) == expected, s"pairs=$pairs (k,l)=($k,$l)")
      }
    }
  }
  test("set dominance matches pair dominance, empty sets included") {
    val rng = new Random(8)
    def gen() = SkylineSet.of(Seq.fill(rng.nextInt(6))((rng.nextInt(8), rng.nextInt(8))))
    for (_ <- 1 to 300) {
      val (s, o) = (gen(), gen())
      assert(s.dominatesOrEq(o) == o.pairs.forall { case (k, l) => s.dominatesOrEq(k, l) }, s"s=$s o=$o")
    }
  }
  test("maxK/maxL") {
    val s = SkylineSet.of(Seq((5, 1), (2, 4), (3, 3)))
    assert(s.maxK == 5 && s.maxL == 4)
  }
  test("constructor rejects non-staircase input") {
    assertThrows[IllegalArgumentException](SkylineSet(Vector((1, 1), (2, 2))))
  }
}

class DIndexSpec extends AnyFunSuite {

  /** Definitional reference: enumerate all candidates, keep the skyline. */
  private def reference(rin: Seq[(Int, Int)], rout: Seq[(Int, Int)]): Vector[(Int, Int)] = {
    val kub = rin.size; val lub = rout.size
    val ok = for {
      k <- 0 to kub; l <- 0 to lub
      if rin.count { case (ki, li) => ki >= k && li >= l } >= k
      if rout.count { case (kj, lj) => kj >= k && lj >= l } >= l
    } yield (k, l)
    Dominance.skyline(ok)
  }

  test("paper example: D({(1,1),(2,2)}, {(3,3),(4,4)}) = {(1,2)}") {
    assert(DIndex(Seq((1, 1), (2, 2)), Seq((3, 3), (4, 4))) == Vector((1, 2)))
  }
  test("paper example (asymmetry): D({(3,3),(4,4)}, {(1,1),(2,2)}) = {(2,1)}") {
    assert(DIndex(Seq((3, 3), (4, 4)), Seq((1, 1), (2, 2))) == Vector((2, 1)))
  }
  test("empty inputs give {(0,0)}") {
    assert(DIndex(Nil, Nil) == Vector((0, 0)))
  }
  test("empty out side can still support (k,0)") {
    assert(DIndex(Seq((2, 5), (3, 1)), Nil) == Vector((2, 0)))
  }
  test("empty in side can still support (0,l)") {
    assert(DIndex(Nil, Seq((2, 5), (3, 1))) == Vector((0, 1)))
  }
  test("matches definitional reference on random inputs") {
    val rng = new Random(8)
    for (i <- 1 to 100) {
      val rin = Seq.fill(rng.nextInt(8))((rng.nextInt(6), rng.nextInt(6)))
      val rout = Seq.fill(rng.nextInt(8))((rng.nextInt(6), rng.nextInt(6)))
      assert(DIndex(rin, rout) == reference(rin, rout), s"i=$i rin=$rin rout=$rout")
    }
  }
  test("multi-pair neighbour skylines match the definitional reference") {
    // A neighbour supports (k,l) when any of its pairs dominates-or-equals
    // (k,l), and it counts once however many of its pairs do.
    val rng = new Random(10)
    def neighbours(): Array[SkylineSet] =
      Array.fill(rng.nextInt(7))(SkylineSet.of(Seq.fill(1 + rng.nextInt(4))((rng.nextInt(6), rng.nextInt(6)))))
    def supporters(ns: Array[SkylineSet], k: Int, l: Int): Int =
      ns.count(_.pairs.exists { case (ki, li) => ki >= k && li >= l })
    for (i <- 1 to 200) {
      val (in, out) = (neighbours(), neighbours())
      val ok = for {
        k <- 0 to in.length; l <- 0 to out.length
        if supporters(in, k, l) >= k && supporters(out, k, l) >= l
      } yield (k, l)
      assert(DIndex(in, out) == Dominance.skyline(ok), s"i=$i in=${in.toSeq} out=${out.toSeq}")
    }
  }
  test("result is a staircase") {
    val rng = new Random(9)
    for (_ <- 1 to 50) {
      val rin = Seq.fill(rng.nextInt(10))((rng.nextInt(8), rng.nextInt(8)))
      val rout = Seq.fill(rng.nextInt(10))((rng.nextInt(8), rng.nextInt(8)))
      val d = DIndex(rin, rout)
      for (Seq((k1, l1), (k2, l2)) <- d.sliding(2) if d.size >= 2) assert(k1 > k2 && l1 < l2)
    }
  }
}
