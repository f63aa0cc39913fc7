package repro.bench

import repro.SparkSpec
import repro.core.{AnchoredCoreness, Peeling, SkylineCoreness}
import repro.graphgen.Datasets

/** Exp-3 / Fig. 4 — our algorithms vs the Peeling baseline.
  *
  * At bench scale a single-machine peel is fast (the paper's own Appendix F
  * shows peeling wins on one machine for small graphs), so wall-clock alone
  * cannot reproduce Fig. 4. What makes distributed peeling catastrophically
  * slow is its critical path: one coordinator round-trip per deletion step,
  * versus one synchronisation per superstep for the H-index algorithms. We
  * therefore report, per algorithm: local wall time, communication
  * (messages), critical-path length (sequential steps), and the simulated
  * distributed time = steps × 1 ms network latency (DESIGN.md §2) — whose
  * ordering reproduces Fig. 4: Peeling ≫ AC ≥ SC, and SC beats AC on both
  * time and communication.
  */
class Exp3CompareBench extends SparkSpec {

  private case class Algo(wall: Double, msgs: Long, criticalPath: Long) {
    def simulatedSec: Double = criticalPath * BenchUtil.NetworkLatencySec
  }
  private case class Row(peel: Algo, acv: Algo, acb: Algo, scv: Algo, scb: Algo)

  private lazy val rows: Map[String, Row] = {
    BenchUtil.banner("Fig. 4 (Exp-3): ours vs Peeling — wall s / messages / critical path / simulated distributed s")
    Datasets.small.map(spec => spec.abbr -> measure(spec)).toMap
  }

  /** HW, the densest stand-in (average degree ~100), is not among the small
    * graphs; it is measured on its own for the B-vs-V communication check.
    */
  private lazy val hw: Row = measure(Datasets.HW)

  private def measure(spec: Datasets.Spec): Row = {
    val g = spec.generate(spark)
    val local = g.toLocal
    val (peelRes, tP) = BenchUtil.timed(Peeling.decompose(local, budgetMillis = 10 * 60 * 1000L))
    val peel = peelRes match {
      case Some(r) => Algo(tP, r.stats.messages, r.stats.deleteSteps)
      case None    => Algo(Double.PositiveInfinity, Long.MaxValue, Long.MaxValue) // "INF"
    }
    val (acvR, t1) = BenchUtil.timed(AnchoredCoreness.run(g, BenchUtil.vMode))
    val (acbR, t2) = BenchUtil.timed(AnchoredCoreness.run(g, BenchUtil.bMode()))
    val (scvR, t3) = BenchUtil.timed(SkylineCoreness.run(g, BenchUtil.vMode))
    val (scbR, t4) = BenchUtil.timed(SkylineCoreness.run(g, BenchUtil.bMode()))
    val row = Row(
      peel,
      Algo(t1, acvR.totalMessages, acvR.totalRounds.toLong),
      Algo(t2, acbR.totalMessages, acbR.totalRounds.toLong),
      Algo(t3, scvR.totalMessages, (scvR.totalRounds).toLong),
      Algo(t4, scbR.totalMessages, (scbR.totalRounds).toLong)
    )
    println(s"--- ${spec.abbr}")
    for ((name, a) <- Seq("Peeling" -> row.peel, "AC-V" -> row.acv, "AC-B" -> row.acb,
                          "SC-V" -> row.scv, "SC-B" -> row.scb))
      println(f"  $name%-9s wall=${a.wall}%8.2fs  msgs=${a.msgs}%12d  path=${a.criticalPath}%10d  simulated=${a.simulatedSec}%10.2fs")
    BenchUtil.clearCache(spark)
    row
  }

  test("simulated distributed time: peeling is orders of magnitude slower than SC") {
    for (spec <- Datasets.small) {
      val r = rows(spec.abbr)
      assert(r.peel.simulatedSec > 10 * r.scv.simulatedSec,
        s"${spec.abbr}: peel ${r.peel.simulatedSec}s vs SC-V ${r.scv.simulatedSec}s")
    }
  }

  test("critical path: H-index rounds are a tiny fraction of peeling's sequential steps") {
    for (spec <- Datasets.small) {
      val r = rows(spec.abbr)
      assert(r.acv.criticalPath.toDouble / r.peel.criticalPath < 0.05, spec.abbr)
    }
  }

  test("SC uses no more communication than AC (paper: up to ~1 order less)") {
    for (spec <- Datasets.small) {
      val r = rows(spec.abbr)
      assert(r.scv.msgs <= r.acv.msgs, s"${spec.abbr}: SC-V ${r.scv.msgs} vs AC-V ${r.acv.msgs}")
      assert(r.scb.msgs <= r.acb.msgs, s"${spec.abbr}: SC-B ${r.scb.msgs} vs AC-B ${r.acb.msgs}")
    }
  }

  test("block-centric communicates less than vertex-centric (Fig. 4b ordering)") {
    for (spec <- Datasets.small) {
      val r = rows(spec.abbr)
      assert(r.acb.msgs <= r.acv.msgs, spec.abbr)
      assert(r.scb.msgs <= r.scv.msgs, spec.abbr)
    }
  }

  test("block-centric communicates less than vertex-centric on HW, the densest stand-in") {
    assert(hw.acb.msgs <= hw.acv.msgs, s"AC-B ${hw.acb.msgs} vs AC-V ${hw.acv.msgs}")
    assert(hw.scb.msgs <= hw.scv.msgs, s"SC-B ${hw.scb.msgs} vs SC-V ${hw.scv.msgs}")
  }
}
