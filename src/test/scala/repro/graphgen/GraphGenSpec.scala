package repro.graphgen

import repro.SparkSpec
import repro.core.Peeling

class GraphGenSpec extends SparkSpec {

  test("powerLaw produces roughly the requested size") {
    val g = GraphGen.powerLaw(spark, 2000, 20000, 0.55, 0.65, seed = 1)
    assert(g.numEdges > 12000 && g.numEdges < 30000)
    assert(g.numVertices <= 2000)
  }

  test("powerLaw is deterministic in the seed") {
    val a = GraphGen.powerLaw(spark, 500, 3000, 0.55, 0.65, seed = 2).toLocal.edges.toSet
    val b = GraphGen.powerLaw(spark, 500, 3000, 0.55, 0.65, seed = 2).toLocal.edges.toSet
    assert(a == b)
  }

  test("different seeds give different graphs") {
    val a = GraphGen.powerLaw(spark, 500, 3000, 0.55, 0.65, seed = 3).toLocal.edges.toSet
    val b = GraphGen.powerLaw(spark, 500, 3000, 0.55, 0.65, seed = 4).toLocal.edges.toSet
    assert(a != b)
  }

  test("powerLaw has no self-loops or duplicates") {
    val edges = GraphGen.powerLaw(spark, 300, 2000, 0.55, 0.6, seed = 5).toLocal.edges
    assert(edges.forall { case (u, v) => u != v })
    assert(edges.size == edges.toSet.size)
  }

  test("higher alphaIn gives heavier in-degree tail") {
    def maxIn(alphaIn: Double): Int = {
      val g = GraphGen.powerLaw(spark, 3000, 30000, 0.5, alphaIn, seed = 6).toLocal
      g.maxInDeg
    }
    assert(maxIn(0.85) > maxIn(0.4))
  }

  test("citationDag has near-trivial cores (paper CT: kmax=lmax=1)") {
    val g = GraphGen.citationDag(spark, 5000, 22000, seed = 8).toLocal
    val kmax = Peeling.inCoreness(g).max
    val lmax = Peeling.outCoreness(g).max
    assert(kmax <= 3, s"kmax=$kmax should be tiny for a near-DAG")
    assert(lmax <= 3, s"lmax=$lmax should be tiny for a near-DAG")
  }

  test("citationDag is mostly forward (acyclic backbone)") {
    val edges = GraphGen.citationDag(spark, 2000, 9000, seed = 9).toLocal.edges
    val back = edges.count { case (u, v) => u < v }
    assert(back.toDouble / edges.size < 0.05)
  }

  test("randomLocalEdges: deterministic, loop-free, sized") {
    val a = GraphGen.randomLocalEdges(30, 100, 10)
    val b = GraphGen.randomLocalEdges(30, 100, 10)
    assert(a == b)
    assert(a.size == 100)
    assert(a.forall { case (u, v) => u != v })
    assert(a.toSet.size == a.size)
  }

  test("dataset stand-ins generate and report plausible stats") {
    val g = Datasets.WV.generate(spark)
    val s = g.stats
    assert(s.numVertices > 500 && s.numVertices <= Datasets.WV.nV)
    assert(s.numEdges > Datasets.WV.nE / 2)
    assert(s.avgDegree > 5.0) // WV is dense-ish (paper: 14.57)
  }

  test("dataset registry: lookup and small set") {
    assert(Datasets.byAbbr("wv") == Datasets.WV)
    assert(Datasets.small.map(_.abbr) == Seq("WV", "EE", "SL", "AM", "CT"))
    assert(Datasets.all.size == 11)
    assertThrows[RuntimeException](Datasets.byAbbr("nope"))
  }

  test("sparse stand-in is sparse") {
    val g = Datasets.EE.generate(spark)
    assert(g.stats.avgDegree < 4.0) // paper EE: 1.58
  }
}
