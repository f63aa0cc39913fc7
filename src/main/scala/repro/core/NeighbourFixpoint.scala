package repro.core

import scala.reflect.ClassTag

import repro.engine.VertexProgram

/** The loop every D-core vertex program runs (Algs. 2–6): a vertex keeps
  * the latest value heard from each neighbour, recomputes its own value from
  * them, and re-broadcasts it to its receivers whenever it changes.
  *
  * An instance supplies the neighbours whose values it reads (`inN`, `outN`,
  * each sorted by id), the vertices it feeds (`receivers`), the initial value
  * and `update`, which returns the new value or `None` when it is unchanged.
  * The neighbour tables are positional: `in(i)` holds the latest value of
  * `inN(ctx)(i)`, and a 2-cycle neighbour fills a slot on each side.
  *
  * Every vertex sends its initial value to each of its receivers, and every
  * slot an instance reads belongs to a neighbour that feeds it, so the first
  * round fills every slot before `update` first runs. The engine runs a
  * vertex only when it has mail, so `update` must return `None` on its own
  * result when the tables have not changed.
  */
abstract class NeighbourFixpoint[C, V: ClassTag]
    extends VertexProgram[C, NeighbourFixpoint.State[V], (Long, V)] {
  import NeighbourFixpoint.State

  def inN(ctx: C): Array[Long]
  def outN(ctx: C): Array[Long]
  def receivers(ctx: C): Array[Long]
  def init(vid: Long, ctx: C): V
  def update(ctx: C, value: V, in: Array[V], out: Array[V]): Option[V]

  private def broadcast(vid: Long, ctx: C, value: V): Iterator[(Long, (Long, V))] =
    receivers(ctx).iterator.map(t => (t, (vid, value)))

  def initialState(vid: Long, ctx: C): State[V] =
    State(init(vid, ctx), new Array[V](inN(ctx).length), new Array[V](outN(ctx).length))

  def initialMessages(vid: Long, ctx: C, s: State[V]): Iterator[(Long, (Long, V))] =
    broadcast(vid, ctx, s.value)

  def compute(vid: Long, ctx: C, s: State[V], msgs: Seq[(Long, V)]): (State[V], Iterator[(Long, (Long, V))], Boolean) = {
    // Copies: the previous round's record holds `s` and must stay intact.
    val in = s.in.clone()
    val out = s.out.clone()
    val ins = inN(ctx)
    val outs = outN(ctx)
    // In arrival order, so a later message from the same sender wins (a
    // block-centric sender can send once per local sub-iteration).
    msgs.foreach { case (u, x) =>
      val i = java.util.Arrays.binarySearch(ins, u)
      if (i >= 0) in(i) = x
      val j = java.util.Arrays.binarySearch(outs, u)
      if (j >= 0) out(j) = x
    }
    update(ctx, s.value, in, out) match {
      case Some(v2) => (State(v2, in, out), broadcast(vid, ctx, v2), true)
      case None     => (State(s.value, in, out), Iterator.empty, false)
    }
  }
}

object NeighbourFixpoint {

  /** A vertex's value and its neighbour tables, aligned to `inN`/`outN`. */
  final case class State[V](value: V, in: Array[V], out: Array[V])
}
