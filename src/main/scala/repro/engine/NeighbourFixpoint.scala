package repro.engine

/** The engine's program type, and the loop every D-core vertex program runs
  * (Algs. 2–6): a vertex keeps the latest value heard from each neighbour,
  * recomputes its own value from them, and re-broadcasts it to its receivers
  * whenever it changes.
  *
  * An instance supplies the neighbours whose values it reads (`inN`, `outN`,
  * each sorted by id), the vertices it feeds (`receivers`), the initial value
  * and `update`, which returns the new value or `None` when it is unchanged.
  * The neighbour tables are positional: `in(i)` holds the latest value of
  * `inN(ctx)(i)`, and a 2-cycle neighbour fills a slot on each side.
  *
  * Before round 0 the engine fills each slot of a vertex's tables with the
  * vertex's own initial value. Each time a vertex's value changes (and in
  * round 0, with its initial value) the engine sends it to
  * `receivers(ctx, state, round)`, the readers that need the sender's new
  * `state.value` in that round. The hook also sees the sender's tables,
  * which hold the last value each neighbour sent it. It may leave out a
  * reader whose `update` cannot tell the value apart from what that
  * reader's slot already holds: the reader's own initial value, or an
  * earlier value of the sender. A hook that ignores `state` and `round`
  * sends every value, round 0's initial one included, to the same readers;
  * when every slot an instance reads belongs to a neighbour that feeds it,
  * the first round then overwrites every slot before `update` first runs.
  * The engine runs a vertex only when it has mail, so `update` must return
  * `None` on its own result when the tables have not changed.
  */
trait NeighbourFixpoint[C, V] extends Serializable {
  def inN(ctx: C): Array[Long]
  def outN(ctx: C): Array[Long]
  def receivers(ctx: C, state: NeighbourFixpoint.State[V], round: Int): Array[Long]
  def init(vid: Long, ctx: C): V
  def update(ctx: C, value: V, in: Array[V], out: Array[V]): Option[V]
}

object NeighbourFixpoint {

  /** A vertex's value and its neighbour tables, aligned to `inN`/`outN`. */
  final case class State[V](value: V, in: Array[V], out: Array[V])
}
