package repro.engine

/** Engine modes the specs share. */
object TestModes {

  /** HASH blocks: vertex `v` goes to block `v mod b`, negative ids folded by
    * `BlockCentric.block`.
    */
  def blockMode(b: Int): BlockCentric = BlockCentric(v => (v % b).toInt, b)
}
