package repro.engine

import org.scalatest.funsuite.AnyFunSuite

/** `SuperstepEngine.stepBlock` on one block, without Spark. */
class NeighbourFixpointSpec extends AnyFunSuite {
  import NeighbourFixpoint.State
  import SuperstepEngine.{stepBlock, Block}

  /** Toy instance: a vertex's value is the largest value it has heard. */
  private object MaxHeard extends NeighbourFixpoint[VertexAdj, Int] {
    def inN(a: VertexAdj): Array[Long] = a.inN
    def outN(a: VertexAdj): Array[Long] = a.outN
    def receivers(a: VertexAdj, s: State[Int], round: Int): Array[Long] = a.distinctNeighbors
    def init(vid: Long, a: VertexAdj): Int = 0
    def update(a: VertexAdj, value: Int, in: Array[Int], out: Array[Int]): Option[Int] = {
      val m = (in ++ out).max
      if (m > value) Some(m) else None
    }
  }

  // Vertex 5 with in-neighbours {1, 2} and out-neighbours {2, 9}: 2 is a 2-cycle.
  private val adj = VertexAdj(Array(1L, 2L), Array(2L, 9L))

  /** Round 1 of a block holding only vertex 5 in state `s`, with `mail` from
    * `(sender, value)` pairs.
    */
  private def step(s: State[Int], mail: (Long, Int)*): Block[Int] =
    stepBlock(1, 0, Array(5L), Array(adj), block(s), mail.iterator.map(m => (5L, m)), MaxHeard,
      localDelivery = false, maxRounds = 10)

  private def block[V](states: State[V]*): Block[V] =
    Block(states.toArray, new Array[Int](states.length), Array.empty, RoundCounts(0, 0, Map.empty))

  test("a sender in both inN and outN fills both slots") {
    val s1 = step(State(0, Array(0, 0), Array(0, 0)), (1L, 4), (2L, 7), (9L, 1)).states(0)
    assert(s1.in.toSeq == Seq(4, 7))
    assert(s1.out.toSeq == Seq(7, 1))
  }

  test("the last of several messages from one sender wins") {
    val s1 = step(State(0, Array(0, 0), Array(0, 0)), (2L, 5), (2L, 3)).states(0)
    assert(s1.in.toSeq == Seq(0, 3))
    assert(s1.out.toSeq == Seq(3, 0))
  }

  test("a step leaves the previous block's tables unchanged") {
    val s0 = State(2, Array(1, 2), Array(2, 0))
    val b = step(s0, (1L, 8), (2L, 6), (9L, 4))
    assert(b.lastChanged(0) == 1 && b.states(0).value == 8)
    assert(s0.in.toSeq == Seq(1, 2) && s0.out.toSeq == Seq(2, 0))
  }

  test("a changed value is broadcast to every receiver once") {
    val b = step(State(0, Array(0, 0), Array(0, 0)), (9L, 3))
    assert(b.lastChanged(0) == 1 && b.states(0).value == 3)
    assert(b.outbox.toSeq.sortBy(_._1) == Seq((1L, (5L, 3)), (2L, (5L, 3)), (9L, (5L, 3))))
  }

  test("an unchanged value sends nothing and reports no change") {
    val b = step(State(6, Array(6, 2), Array(2, 1)), (9L, 5))
    assert(b.lastChanged(0) == 0 && b.states(0).value == 6)
    assert(b.outbox.isEmpty)
    assert(b.states(0).out.toSeq == Seq(2, 5))
  }

  test("block-centric mail within the block lands at the next sub-iteration") {
    // The path 1-2-3 in one block after round 0: values are the ids, tables
    // are empty and the inbox holds the four initial broadcasts.
    val vids = Array(1L, 2L, 3L)
    val none = Array.emptyLongArray
    val adjs = Array(VertexAdj(none, Array(2L)), VertexAdj(Array(1L), Array(3L)), VertexAdj(Array(2L), none))
    val prev = block(State(1L, none, Array(0L)), State(2L, Array(0L), Array(0L)), State(3L, Array(0L), none))
    val inbox = Iterator((2L, (1L, 1L)), (1L, (2L, 2L)), (3L, (2L, 2L)), (2L, (3L, 3L)))
    val b = stepBlock(1, 0, vids, adjs, prev, inbox, TestPrograms.MinLabel, localDelivery = true, maxRounds = 10)
    // Sub-iteration 1: 2 and 3 lower to 1 and 2 and send 3 local messages;
    // 3 hears 2's new label only in sub-iteration 2 and sends one more.
    assert(b.counts == RoundCounts(0, 4, Map(0 -> 1L, 1 -> 2L)))
    assert(b.states.map(_.value).toSeq == Seq(1L, 1L, 1L))
    assert(b.outbox.isEmpty)
    // Three sub-iterations ran; the previous record's tables still hold
    // round 0's contents.
    assert(prev.states.map(s => (s.value, s.in.toSeq, s.out.toSeq)).toSeq ==
      Seq((1L, Seq(), Seq(0L)), (2L, Seq(0L), Seq(0L)), (3L, Seq(0L), Seq())))
  }

  test("a border vertex that changes twice in a round sends its settled value once") {
    // The path 1-2-3 in one block, as above, plus the edge 3->9 to a vertex
    // 9 of another block, whose initial broadcast is in the inbox too.
    val vids = Array(1L, 2L, 3L)
    val none = Array.emptyLongArray
    val adjs = Array(VertexAdj(none, Array(2L)), VertexAdj(Array(1L), Array(3L)), VertexAdj(Array(2L), Array(9L)))
    val prev = block(State(1L, none, Array(0L)), State(2L, Array(0L), Array(0L)), State(3L, Array(0L), Array(0L)))
    val inbox = Iterator((2L, (1L, 1L)), (1L, (2L, 2L)), (3L, (2L, 2L)), (2L, (3L, 3L)), (3L, (9L, 9L)))
    val b = stepBlock(1, 0, vids, adjs, prev, inbox, TestPrograms.MinLabel, localDelivery = true, maxRounds = 10)
    // 3 lowers to 2 in sub-iteration 1 and to 1 in sub-iteration 2; only the
    // settled 1 goes to 9.
    assert(b.states.map(_.value).toSeq == Seq(1L, 1L, 1L))
    assert(b.outbox.toSeq == Seq((9L, (3L, 1L))))
    assert(b.counts == RoundCounts(1, 4, Map(0 -> 1L, 1 -> 2L)))
  }
}
