package repro.bench

import repro.SparkSpec
import repro.core.SkylineCoreness
import repro.graphgen.Datasets

/** Table 3 — dataset statistics: |V|, |E|, deg_avg, kmax, lmax for the 11
  * synthetic stand-ins, printed next to the paper's originals. kmax/lmax are
  * the graph-level maxima of the per-vertex in-/out-corenesses, computed by
  * `SkylineCoreness.corenesses`, the two distributed Alg.-2 fixpoints (which
  * are themselves under test here at hundreds of thousands of edges).
  */
class Table3Bench extends SparkSpec {

  private case class Row(abbr: String, v: Long, e: Long, avg: Double, kmax: Int, lmax: Int)

  private lazy val rows: Map[String, Row] = {
    BenchUtil.banner("Table 3: statistics of the dataset stand-ins (paper numbers in parens)")
    println(f"${"Dataset"}%-13s${"Abbr"}%-5s${"|V|"}%9s ${"(paper)"}%-9s${"|E|"}%9s ${"(paper)"}%-9s" +
      f"${"deg_avg"}%8s ${"(paper)"}%-8s${"kmax"}%6s ${"(paper)"}%-7s${"lmax"}%6s ${"(paper)"}%-7s")
    val out = for (spec <- Datasets.all) yield {
      val g = spec.generate(spark)
      val st = g.stats
      val (ctx, _, _) = SkylineCoreness.corenesses(g, BenchUtil.vMode)
      val kmax = ctx.values.map(_.k0).max()
      val lmax = ctx.values.map(_.l0).max()
      println(f"${spec.name}%-13s${spec.abbr}%-5s${st.numVertices}%9d ${"(" + spec.paperV + ")"}%-9s" +
        f"${st.numEdges}%9d ${"(" + spec.paperE + ")"}%-9s" +
        f"${st.avgDegree}%8.2f ${"(" + spec.paperAvgDeg + ")"}%-8s" +
        f"$kmax%6d ${"(" + spec.paperKmax + ")"}%-7s$lmax%6d ${"(" + spec.paperLmax + ")"}%-7s")
      BenchUtil.clearCache(spark)
      spec.abbr -> Row(spec.abbr, st.numVertices, st.numEdges, st.avgDegree, kmax, lmax)
    }
    out.toMap
  }

  test("all 11 stand-ins materialise with the intended scale") {
    for (spec <- Datasets.all) {
      val r = rows(spec.abbr)
      assert(r.v > 0 && r.e > spec.nE / 3, s"${spec.abbr}: |V|=${r.v} |E|=${r.e}")
      assert(r.e < spec.nE * 2, s"${spec.abbr} overshot edge target")
    }
  }

  test("average degree ordering mirrors the paper (HW densest, EE sparsest)") {
    assert(rows("HW").avg == rows.values.map(_.avg).max, "HW should be the densest stand-in")
    assert(rows("EE").avg == rows.values.map(_.avg).min, "EE should be the sparsest stand-in")
  }

  test("citation stand-in has near-trivial cores like the paper's CT (kmax=lmax=1)") {
    assert(rows("CT").kmax <= 2, s"CT kmax=${rows("CT").kmax}")
    assert(rows("CT").lmax <= 2, s"CT lmax=${rows("CT").lmax}")
  }

  test("web stand-ins have the largest kmax, as in the paper") {
    val web = Seq("HW", "UK2", "UK5", "IT").map(rows(_).kmax)
    val social = Seq("WV", "AM", "CT").map(rows(_).kmax)
    assert(web.max > social.max, s"web kmax=$web vs social kmax=$social")
  }

  test("web-core graphs have kmax > lmax, as in the paper") {
    for (a <- Seq("SL", "HW", "UK2", "UK5", "IT"))
      assert(rows(a).kmax > rows(a).lmax, s"$a kmax=${rows(a).kmax} lmax=${rows(a).lmax}")
  }

  test("symmetric-core graphs have kmax ≈ lmax, as in the paper") {
    for (a <- Seq("EE", "PO", "LJ")) {
      val r = rows(a)
      assert(math.abs(r.kmax - r.lmax) <= math.max(3, r.kmax / 3), s"$a kmax=${r.kmax} lmax=${r.lmax}")
    }
  }

  test("kmax never exceeds max in-degree; lmax never exceeds max out-degree") {
    for (spec <- Seq(Datasets.WV, Datasets.SL)) {
      val g = spec.generate(spark)
      val st = g.stats
      assert(rows(spec.abbr).kmax <= st.maxInDeg)
      assert(rows(spec.abbr).lmax <= st.maxOutDeg)
      BenchUtil.clearCache(spark)
    }
  }
}
