package repro.core

import org.apache.spark.rdd.RDD

import repro.SparkSpec
import repro.engine._
import repro.engine.TestModes.blockMode
import repro.graphgen.{ExampleGraphs => EG, GraphGen}

class AnchoredCorenessSpec extends SparkSpec {

  private def fig2 = DirectedGraph.fromEdgeList(spark, EG.figure2Edges)

  private lazy val fig2Trace: (AnchoredCoreness.ACRun, AnchoredCoreness.Trace) = {
    var tr: AnchoredCoreness.Trace = null
    val run = AnchoredCoreness.run(fig2, VertexCentric(2), traceSink = Some(t => tr = t))
    (run, tr)
  }

  // ---------------- Table 1 worked example, phase by phase -----------------

  test("Phase I round 0 reproduces Table 1 row iH^(0) (the in-degrees)") {
    assert(fig2Trace._2.phase1.head == EG.fig2InDegrees)
  }
  test("Phase I round 1 reproduces Table 1 row iH^(1)") {
    val t = fig2Trace._2.phase1
    assert(t(1) == EG.fig2IH1)
  }
  test("Phase I fixpoint reproduces Table 1 row kmax") {
    val kmax = fig2Trace._1.kmax.collect().toMap
    assert(kmax == EG.fig2Kmax)
  }
  test("Phase I converges in 2 rounds on figure 2 (iH^(2) = iH^(1))") {
    val (run, trace) = fig2Trace
    assert(run.phase1.rounds == 2)
    assert(trace.phase1(2) == trace.phase1(1))
  }
  test("Phase II round 0 reproduces Table 1 row oH^(0)_{G[k]} (out-degrees in G)") {
    val got = fig2Trace._2.phase2.head.view.mapValues(_.toVector).toMap
    assert(got == EG.fig2OH0)
  }
  test("Phase II round 1 reproduces Table 1 row oH^(1)_{G[k]}") {
    val t = fig2Trace._2.phase2
    val got = t(1).view.mapValues(_.toVector).toMap
    assert(got == EG.fig2OH1)
  }
  test("Phase II fixpoint reproduces Table 1 row lupp(k,v)") {
    val t = fig2Trace._2.phase2
    val got = t.last.view.mapValues(_.toVector).toMap
    assert(got == EG.fig2Lupp)
  }
  test("Phase III round 0 starts from Table 1 row lupp(k,v)") {
    val got = fig2Trace._2.phase3.head.view.mapValues(_.toVector).toMap
    assert(got == EG.fig2Lupp)
  }
  test("Phase III round 1 reproduces Table 1 row l'upp (only v7's k=1 bound drops)") {
    val t = fig2Trace._2.phase3
    val got = t(1).view.mapValues(_.toVector).toMap
    assert(got == EG.fig2Lmax)
  }
  test("final anchored corenesses reproduce Table 1 row lmax(k,v)") {
    val got = fig2Trace._1.lmax.collect().toMap.view.mapValues(_.toVector).toMap
    assert(got == EG.fig2Lmax)
  }
  test("Φ(v1) = {(0,2),(1,2),(2,2)} as in Example 4.3") {
    val arr = fig2Trace._1.lmax.collect().toMap.apply(1L)
    assert(arr.toSeq.zipWithIndex.map { case (l, k) => (k, l) } == Seq((0, 2), (1, 2), (2, 2)))
  }
  test("skyline derived from AC matches Table 2") {
    val sky = fig2Trace._1.skyline.collect().toMap
    assert(sky == EG.fig2Skyline)
  }

  // ---------------- directional H-index fixpoints --------------------------

  test("corenesses' k0 on figure 2 equals kmax") {
    val (ctx, m, _) = SkylineCoreness.corenesses(fig2, VertexCentric(2))
    assert(ctx.mapValues(_.k0).collect().toMap == EG.fig2Kmax)
    assert(m.rounds >= 1)
  }
  test("corenesses' l0 on figure 2 equals lmax(0,·)") {
    val (ctx, _, _) = SkylineCoreness.corenesses(fig2, VertexCentric(2))
    assert(ctx.mapValues(_.l0).collect().toMap == EG.fig2Lmax.view.mapValues(_.head).toMap)
  }

  // ---------------- equivalence with the sequential baseline ---------------

  private def checkAgainstPeeling(edges: Seq[(Long, Long)], mode: EngineMode, label: String): Unit = {
    val g = DirectedGraph.fromEdgeList(spark, edges)
    val expected = Peeling.decompose(g.toLocal).get
    val run = AnchoredCoreness.run(g, mode)
    val got = run.lmax.collect().toMap
    assert(got.keySet == expected.anchored.keySet, s"$label vertex sets differ")
    for ((v, arr) <- expected.anchored)
      assert(got(v).toSeq == arr.toSeq, s"$label v$v: got ${got(v).toSeq} want ${arr.toSeq}")
  }

  for (seed <- 1 to 8) {
    test(s"AC-V matches peeling on random graph (seed=$seed)") {
      checkAgainstPeeling(GraphGen.randomLocalEdges(20 + seed, 60 + 6 * seed, seed), VertexCentric(3), "AC-V")
    }
  }
  for (seed <- 9 to 13) {
    test(s"AC-B matches peeling on random graph (seed=$seed)") {
      checkAgainstPeeling(GraphGen.randomLocalEdges(20 + seed, 60 + 6 * seed, seed), blockMode(4), "AC-B")
    }
  }
  test("AC-B with FENNEL partitioning matches peeling") {
    val edges = GraphGen.randomLocalEdges(40, 160, 99)
    val p = Partitioners.fennel(edges, 4)
    checkAgainstPeeling(edges, BlockCentric(p.assign, 4), "AC-B/FENNEL")
  }
  test("AC-B with METIS-like partitioning matches peeling") {
    val edges = GraphGen.randomLocalEdges(40, 160, 98)
    val p = Partitioners.metisLike(edges, 4)
    checkAgainstPeeling(edges, BlockCentric(p.assign, 4), "AC-B/METIS")
  }
  test("AC on a denser random graph (higher cores)") {
    checkAgainstPeeling(GraphGen.randomLocalEdges(18, 160, 55), VertexCentric(3), "AC-V dense")
  }
  test("AC on a DAG (all corenesses have k=0 side trivial)") {
    val dag = (for (u <- 1L to 15L; v <- (u + 1) to 15L if (u * 31 + v) % 4 == 0) yield (u, v)).toSeq
    checkAgainstPeeling(dag, VertexCentric(3), "AC-V DAG")
  }
  test("AC on a disconnected graph") {
    val edges = GraphGen.randomLocalEdges(15, 40, 7).map { case (u, v) => (u, v) } ++
      GraphGen.randomLocalEdges(15, 40, 8).map { case (u, v) => (u + 100, v + 100) }
    checkAgainstPeeling(edges, VertexCentric(3), "AC-V disconnected")
  }
  test("AC on the empty graph and a 2-cycle matches peeling in both modes") {
    for (mode <- Seq(VertexCentric(3), blockMode(3)); edges <- Seq(Seq.empty[(Long, Long)], Seq((1L, 2L), (2L, 1L))))
      checkAgainstPeeling(edges, mode, s"AC/${mode.name} on ${edges.size} edges")
  }
  test("AC on a directed cycle (every coreness is (1,1))") {
    val cycle = (0L until 10L).map(i => (i, (i + 1) % 10))
    val g = DirectedGraph.fromEdgeList(spark, cycle)
    val got = AnchoredCoreness.run(g, VertexCentric(2)).lmax.collect().toMap
    got.values.foreach(arr => assert(arr.toSeq == Seq(1, 1)))
  }
  test("Phase III drops a bound by two while no neighbour changes") {
    // lupp(1,10) = 3 from out-neighbours 1-3, but 10's only in-neighbour 11
    // has one out-edge, so lmax(1,10) = 1; no neighbour of 10 changes in
    // Phase III, so nothing wakes 10 after its first compute.
    val clique = for (u <- 1L to 4L; v <- 1L to 4L if u != v) yield (u, v)
    val edges = clique ++ Seq((10L, 1L), (10L, 2L), (10L, 3L), (10L, 11L), (11L, 10L))
    for ((label, mode) <- Seq("V/2" -> VertexCentric(2), "B/2" -> blockMode(2), "B/1" -> BlockCentric(_ => 0, 1)))
      checkAgainstPeeling(edges, mode, label)
  }

  // ---------------- metrics ------------------------------------------------

  test("round counts stay far below the Δ upper bound (Table 4's headline)") {
    // On a skewed graph Δ is large while H-index fixpoints converge in few
    // rounds — the paper's Table 4 contrast. (On tiny uniform graphs Δ is
    // itself small, so the claim is only meaningful under skew.)
    val g = GraphGen.powerLaw(spark, 1500, 12000, 0.55, 0.85, seed = 31)
    val run = AnchoredCoreness.run(g, VertexCentric(4))
    assert(run.totalRounds < g.stats.maxDeg / 2, s"rounds=${run.totalRounds} Δ=${g.stats.maxDeg}")
  }
  test("block-centric takes no more rounds per phase than vertex-centric") {
    val edges = GraphGen.randomLocalEdges(60, 300, 32)
    val g1 = DirectedGraph.fromEdgeList(spark, edges)
    val v = AnchoredCoreness.run(g1, VertexCentric(4))
    val b = AnchoredCoreness.run(DirectedGraph.fromEdgeList(spark, edges), blockMode(4))
    assert(b.phase1.rounds <= v.phase1.rounds)
    assert(b.totalRounds <= v.totalRounds)
  }
  test("AC sends no setup messages: its total is the three phases' sum") {
    val edges = GraphGen.randomLocalEdges(30, 100, 34).map { case (u, v) => (u - 10, v - 10) }
    val g = DirectedGraph.fromEdgeList(spark, edges)
    for (run <- Seq(AnchoredCoreness.run(g, BlockCentric(v => v.toInt, 4)), AnchoredCoreness.run(g, VertexCentric(3)), fig2Trace._1)) {
      assert(run.setupMessages == 0L)
      assert(run.totalMessages == run.phase1.totalMessages + run.phase2.totalMessages + run.phase3.totalMessages)
    }
  }
  test("AC and SC leave nothing persisted but their result and the engine's checkpoints") {
    val g = DirectedGraph.fromEdgeList(spark, GraphGen.randomLocalEdges(30, 100, 35))
    val sc = spark.sparkContext
    // The RDDs `run` newly persisted that are not checkpoints, and the id of the RDD it returned.
    def leftBy(run: => RDD[_]): (Set[Int], Int) = {
      val before = sc.getPersistentRDDs.keySet
      val result = run
      (sc.getPersistentRDDs.collect { case (id, rdd) if !before(id) && !rdd.isCheckpointed => id }.toSet, result.id)
    }
    for (mode <- Seq(VertexCentric(3), blockMode(3))) {
      val (ac, lmax) = leftBy(AnchoredCoreness.run(g, mode).lmax)
      assert(ac == Set(lmax), s"AC/${mode.name}: ${ac.size} persisted RDDs left, ${ac - lmax} besides lmax")
      val (sk, sky) = leftBy(SkylineCoreness.run(g, mode).skyline)
      assert(sk == Set(sky), s"SC/${mode.name}: ${sk.size} persisted RDDs left, ${sk - sky} besides skyline")
    }
  }
  test("message accounting: phase totals are positive and deterministic") {
    val edges = GraphGen.randomLocalEdges(30, 100, 33)
    val g = DirectedGraph.fromEdgeList(spark, edges)
    val a = AnchoredCoreness.run(g, VertexCentric(3))
    val b = AnchoredCoreness.run(g, VertexCentric(3))
    assert(a.totalMessages == b.totalMessages)
    assert(a.phase1.totalMessages > 0)
    // every vertex broadcasts its initial value: round-0 count = Σ deg_out
    assert(a.phase1.remoteMsgsPerRound.head == g.numEdges)
  }
}
