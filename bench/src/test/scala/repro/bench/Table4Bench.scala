package repro.bench

import repro.SparkSpec
import repro.core.{AnchoredCoreness, SkylineCoreness}
import repro.graphgen.Datasets

/** Table 4 — iterations required to converge on WV/EE/SL/AM/CT for AC-V
  * (per phase), AC-B (per phase), SC-V and SC-B, against the upper bound Δ
  * (the paper prints the max-degree bound in its first row). Correctness is
  * cross-checked between all four runs while we are at it.
  */
class Table4Bench extends SparkSpec {

  private case class Row(
      upper: Int,
      acv: (Int, Int, Int), acb: (Int, Int, Int),
      scv: Int, scb: Int,
      scvInit: (Int, Int), scbInit: (Int, Int),
      agree: Boolean
  ) {
    def acvTotal: Int = acv._1 + acv._2 + acv._3
    def acbTotal: Int = acb._1 + acb._2 + acb._3
  }

  private lazy val rows: Map[String, Row] = {
    BenchUtil.banner("Table 4: # iterations to converge (paper values in EXPERIMENTS.md)")
    println(f"${"Algo"}%-10s${"WV"}%8s${"EE"}%8s${"SL"}%8s${"AM"}%8s${"CT"}%8s")
    val out = for (spec <- Datasets.small) yield {
      val g = spec.generate(spark)
      val upper = g.stats.maxDeg
      val acv = AnchoredCoreness.run(g, BenchUtil.vMode)
      val acb = AnchoredCoreness.run(g, BenchUtil.bMode())
      val scv = SkylineCoreness.run(g, BenchUtil.vMode)
      val scb = SkylineCoreness.run(g, BenchUtil.bMode())
      val a = acv.skyline.collect().toMap
      val agree = scv.skyline.collect().toMap == a && scb.skyline.collect().toMap == a
      BenchUtil.clearCache(spark)
      spec.abbr -> Row(
        upper,
        (acv.phase1.rounds, acv.phase2.rounds, acv.phase3.rounds),
        (acb.phase1.rounds, acb.phase2.rounds, acb.phase3.rounds),
        scv.rounds, scb.rounds,
        (scv.initIn.rounds, scv.initOut.rounds), (scb.initIn.rounds, scb.initOut.rounds),
        agree
      )
    }
    val m = out.toMap
    def line(name: String, f: Row => Any): Unit =
      println(f"$name%-10s${Datasets.small.map(s => f(m(s.abbr))).map(v => f"$v%8s").mkString}")
    line("UpperBnd", _.upper)
    line("AC-V I", _.acv._1); line("AC-V II", _.acv._2); line("AC-V III", _.acv._3)
    line("AC-V tot", _.acvTotal)
    line("AC-B I", _.acb._1); line("AC-B II", _.acb._2); line("AC-B III", _.acb._3)
    line("AC-B tot", _.acbTotal)
    line("SC-V", _.scv); line("SC-B", _.scb)
    // Opt-3 initialisation (two Alg.-2 fixpoints), not counted in Table 4
    line("SC-V init", r => s"${r.scvInit._1}+${r.scvInit._2}")
    line("SC-B init", r => s"${r.scbInit._1}+${r.scbInit._2}")
    m
  }

  test("all four algorithms agree on every dataset") {
    for (spec <- Datasets.small) assert(rows(spec.abbr).agree, s"${spec.abbr} results diverge")
  }

  test("iterations are far below the max-degree upper bound (paper's first claim)") {
    for (spec <- Datasets.small) {
      val r = rows(spec.abbr)
      assert(r.acvTotal < r.upper, s"${spec.abbr}: AC-V ${r.acvTotal} !< Δ ${r.upper}")
      assert(r.scv < r.upper, s"${spec.abbr}: SC-V ${r.scv} !< Δ ${r.upper}")
    }
  }

  test("SC converges in no more rounds than AC (paper's second claim)") {
    for (spec <- Datasets.small) {
      val r = rows(spec.abbr)
      assert(r.scv <= r.acvTotal, s"${spec.abbr}: SC-V ${r.scv} vs AC-V ${r.acvTotal}")
      assert(r.scb <= r.acbTotal, s"${spec.abbr}: SC-B ${r.scb} vs AC-B ${r.acbTotal}")
    }
  }

  test("block-centric needs no more iterations than vertex-centric (paper's third claim)") {
    for (spec <- Datasets.small) {
      val r = rows(spec.abbr)
      assert(r.acbTotal <= r.acvTotal, s"${spec.abbr}: AC-B ${r.acbTotal} vs AC-V ${r.acvTotal}")
      assert(r.scb <= r.scv, s"${spec.abbr}: SC-B ${r.scb} vs SC-V ${r.scv}")
    }
  }
}
