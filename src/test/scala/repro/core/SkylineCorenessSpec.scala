package repro.core

import repro.SparkSpec
import repro.engine._
import repro.engine.TestModes.blockMode
import repro.graphgen.{ExampleGraphs => EG, GraphGen}

class SkylineCorenessSpec extends SparkSpec {

  private def fig2 = DirectedGraph.fromEdgeList(spark, EG.figure2Edges)

  private lazy val fig2Run = SkylineCoreness.run(fig2, VertexCentric(2), trace = true)

  // ---------------- Table 2 worked example ---------------------------------

  test("tight initialisation D^(0) = (kmax, lmax) matches Table 2") {
    assert(fig2Run.trace.head == EG.fig2D0)
  }
  test("D^(1) reproduces Table 2 (only v7 and v8 change)") {
    assert(fig2Run.trace(1) == EG.fig2Skyline)
  }
  test("D-index converges after one effective iteration on figure 2 (D^(2) = D^(1))") {
    val t = fig2Run.trace
    assert(t.last == t(1))
    assert(fig2Run.rounds <= 2)
  }
  test("SC(v) reproduces Table 2 for every vertex") {
    assert(fig2Run.skyline.collect().toMap == EG.fig2Skyline)
  }
  test("SC(v7) = {(1,1),(0,2)} as in Example 5.1") {
    assert(fig2Run.skyline.collect().toMap.apply(7L) == Vector((1, 1), (0, 2)))
  }

  // ---------------- equivalence with ground truth --------------------------

  private def checkSkyline(edges: Seq[(Long, Long)], mode: EngineMode, label: String): Unit = {
    val g = DirectedGraph.fromEdgeList(spark, edges)
    val expected = Peeling.decompose(g.toLocal).get.skyline
    val got = SkylineCoreness.run(g, mode).skyline.collect().toMap
    assert(got.keySet == expected.keySet, s"$label vertex sets differ")
    for ((v, sky) <- expected) assert(got(v) == sky, s"$label v$v: got ${got(v)} want $sky")
  }

  for (seed <- 1 to 8) {
    test(s"SC-V matches peeling skyline on random graph (seed=$seed)") {
      checkSkyline(GraphGen.randomLocalEdges(20 + seed, 60 + 6 * seed, seed), VertexCentric(3), "SC-V")
    }
  }
  for (seed <- 9 to 13) {
    test(s"SC-B matches peeling skyline on random graph (seed=$seed)") {
      checkSkyline(GraphGen.randomLocalEdges(20 + seed, 60 + 6 * seed, seed), blockMode(4), "SC-B")
    }
  }
  test("SC-B with METIS-like partitioning matches peeling skyline") {
    val edges = GraphGen.randomLocalEdges(40, 160, 97)
    val p = Partitioners.metisLike(edges, 4)
    checkSkyline(edges, BlockCentric(p.assign, 4), "SC-B/METIS")
  }
  test("SC on a denser random graph") {
    checkSkyline(GraphGen.randomLocalEdges(18, 160, 55), VertexCentric(3), "SC-V dense")
  }
  test("SC on the empty graph and a 2-cycle matches peeling in both modes") {
    for (mode <- Seq(VertexCentric(3), blockMode(3)); edges <- Seq(Seq.empty[(Long, Long)], Seq((1L, 2L), (2L, 1L))))
      checkSkyline(edges, mode, s"SC/${mode.name} on ${edges.size} edges")
  }
  test("SC on a directed cycle: SC(v) = {(1,1)}") {
    val cycle = (0L until 10L).map(i => (i, (i + 1) % 10))
    val got = SkylineCoreness.run(DirectedGraph.fromEdgeList(spark, cycle), VertexCentric(2))
      .skyline.collect().toMap
    got.values.foreach(sky => assert(sky == Vector((1, 1))))
  }
  test("SC on a star (hub has (0,l) and (k,0) skylines only)") {
    val star = (1L to 6L).map(i => (0L, i)) ++ (7L to 12L).map(i => (i, 0L))
    val got = SkylineCoreness.run(DirectedGraph.fromEdgeList(spark, star), VertexCentric(2))
      .skyline.collect().toMap
    val g = LocalGraph.fromEdges(star)
    val expected = BruteForce.skylineCorenesses(g)
    assert(got == expected)
  }

  // ---------------- AC ≡ SC (Sec. 5.1: the problems are equivalent) --------

  for (seed <- 40 to 44) {
    test(s"skyline(Φ(v)) == SC(v) on random graph (seed=$seed)") {
      val edges = GraphGen.randomLocalEdges(25, 100, seed)
      val g = DirectedGraph.fromEdgeList(spark, edges)
      val ac = AnchoredCoreness.run(g, VertexCentric(3)).skyline.collect().toMap
      val sc = SkylineCoreness.run(DirectedGraph.fromEdgeList(spark, edges), VertexCentric(3))
        .skyline.collect().toMap
      assert(ac == sc)
    }
  }

  // ---------------- cores materialised from SC -----------------------------

  test("all D-cores recovered from SC match brute force") {
    for (seed <- 60 to 62) {
      val edges = GraphGen.randomLocalEdges(22, 80, seed)
      val g = DirectedGraph.fromEdgeList(spark, edges)
      val sky = SkylineCoreness.run(g, VertexCentric(3)).skyline.collect().toMap
      val cores = BruteForce.allCores(g.toLocal)
      for (((k, l), expect) <- cores)
        assert(Coreness.coreFromSkyline(sky, k, l) == expect, s"seed=$seed ($k,$l)")
      // and (k,l) outside any core is empty
      val kTop = cores.keys.map(_._1).max
      assert(Coreness.coreFromSkyline(sky, kTop + 1, 0).isEmpty || cores.contains((kTop + 1, 0)))
    }
  }

  // ---------------- metrics / paper claims ---------------------------------

  test("SC rounds <= AC rounds (paper: SC converges faster)") {
    val edges = GraphGen.randomLocalEdges(80, 500, 70)
    val g = DirectedGraph.fromEdgeList(spark, edges)
    val ac = AnchoredCoreness.run(g, VertexCentric(3))
    val sc = SkylineCoreness.run(DirectedGraph.fromEdgeList(spark, edges), VertexCentric(3))
    assert(sc.rounds <= ac.totalRounds, s"SC=${sc.rounds} AC=${ac.totalRounds}")
  }
  test("SC-B takes no more rounds than SC-V") {
    val edges = GraphGen.randomLocalEdges(60, 300, 71)
    val v = SkylineCoreness.run(DirectedGraph.fromEdgeList(spark, edges), VertexCentric(4))
    val b = SkylineCoreness.run(DirectedGraph.fromEdgeList(spark, edges), blockMode(4))
    assert(b.rounds <= v.rounds)
  }
  test("SC message counts are deterministic") {
    val edges = GraphGen.randomLocalEdges(30, 100, 72)
    val g = DirectedGraph.fromEdgeList(spark, edges)
    val a = SkylineCoreness.run(g, VertexCentric(3))
    val b = SkylineCoreness.run(g, VertexCentric(3))
    assert(a.totalMessages == b.totalMessages)
  }
  test("SC states only shrink (n-order D-index monotone convergence)") {
    val g = DirectedGraph.fromEdgeList(spark, GraphGen.randomLocalEdges(40, 200, 73))
    val snaps = SkylineCoreness.run(g, VertexCentric(3), trace = true).trace
    for (Seq(prev, next) <- snaps.sliding(2) if snaps.size >= 2; v <- next.keys) {
      // every pair in the later set is dominated-or-equal by some earlier pair
      val p = SkylineSet(prev(v))
      assert(next(v).forall { case (k, l) => p.dominatesOrEq(k, l) }, s"v$v grew: ${prev(v)} -> ${next(v)}")
    }
  }
}
