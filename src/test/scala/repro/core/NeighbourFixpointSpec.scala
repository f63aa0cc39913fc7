package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.engine.VertexAdj

/** `NeighbourFixpoint.compute` on one vertex, without Spark. */
class NeighbourFixpointSpec extends AnyFunSuite {
  import NeighbourFixpoint.State

  /** Toy instance: a vertex's value is the largest value it has heard. */
  private object MaxHeard extends NeighbourFixpoint[VertexAdj, Int] {
    def inN(a: VertexAdj): Array[Long] = a.inN
    def outN(a: VertexAdj): Array[Long] = a.outN
    def receivers(a: VertexAdj): Array[Long] = a.distinctNeighbors
    def init(vid: Long, a: VertexAdj): Int = 0
    def update(a: VertexAdj, value: Int, in: Array[Int], out: Array[Int]): Option[Int] = {
      val m = (in ++ out).max
      if (m > value) Some(m) else None
    }
  }

  // Vertex 5 with in-neighbours {1, 2} and out-neighbours {2, 9}: 2 is a 2-cycle.
  private val adj = VertexAdj(Array(1L, 2L), Array(2L, 9L))

  test("a sender in both inN and outN fills both slots") {
    val s0 = MaxHeard.initialState(5L, adj)
    val (s1, _, _) = MaxHeard.compute(5L, adj, s0, Seq((1L, 4), (2L, 7), (9L, 1)))
    assert(s1.in.toSeq == Seq(4, 7))
    assert(s1.out.toSeq == Seq(7, 1))
  }

  test("the last of several messages from one sender wins") {
    val s0 = State(0, Array(0, 0), Array(0, 0))
    val (s1, _, _) = MaxHeard.compute(5L, adj, s0, Seq((2L, 5), (2L, 3)))
    assert(s1.in.toSeq == Seq(0, 3))
    assert(s1.out.toSeq == Seq(3, 0))
  }

  test("compute leaves the input state's tables unchanged") {
    val s0 = State(2, Array(1, 2), Array(2, 0))
    val (s1, _, changed) = MaxHeard.compute(5L, adj, s0, Seq((1L, 8), (2L, 6), (9L, 4)))
    assert(changed && s1.value == 8)
    assert(s0.in.toSeq == Seq(1, 2) && s0.out.toSeq == Seq(2, 0))
  }

  test("a changed value is broadcast to every receiver once") {
    val (s1, out, changed) = MaxHeard.compute(5L, adj, MaxHeard.initialState(5L, adj), Seq((9L, 3)))
    assert(changed && s1.value == 3)
    assert(out.toSeq.sortBy(_._1) == Seq((1L, (5L, 3)), (2L, (5L, 3)), (9L, (5L, 3))))
  }

  test("an unchanged value sends nothing and reports no change") {
    val s0 = State(6, Array(6, 2), Array(2, 1))
    val (s1, out, changed) = MaxHeard.compute(5L, adj, s0, Seq((9L, 5)))
    assert(!changed && s1.value == 6)
    assert(out.isEmpty)
    assert(s1.out.toSeq == Seq(2, 5))
  }
}
