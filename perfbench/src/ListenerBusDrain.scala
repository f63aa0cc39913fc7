package org.apache.spark

/** Waits until every queued listener event has been delivered, so a
  * listener's view of a finished job is complete. The bus is private to
  * Spark, hence this object's package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
