package repro.bench

import repro.SparkSpec
import repro.core.{AnchoredCoreness, SkylineCoreness}
import repro.engine.{BlockCentric, Partitioners}
import repro.graphgen.Datasets

/** Exp-6 / Fig. 7 — effect of the partition strategy on the block-centric
  * algorithms (WV stand-in, 8 blocks). Paper: HASH balances best but
  * communicates most; FENNEL/METIS cut fewer edges and so communicate less.
  */
class Exp6PartitionBench extends SparkSpec {

  private case class Row(
      cut: Double, balance: Double,
      acRounds: Int, acMsgs: Long, acWall: Double,
      scRounds: Int, scMsgs: Long, scWall: Double
  )

  private lazy val rows: Map[String, Row] = {
    BenchUtil.banner("Fig. 7 (Exp-6): partition strategies (AC-B / SC-B on WV stand-in, 8 blocks)")
    val g = Datasets.WV.generate(spark)
    import g.edges.sparkSession.implicits._
    val edges = g.edges.as[(Long, Long)].collect().toSeq
    val ids = edges.flatMap { case (a, b) => Seq(a, b) }.distinct
    val maxId = ids.max
    val B = BenchUtil.DefaultBlocks
    val strategies = Seq(
      Partitioners.seg(B, maxId),
      Partitioners.hash(B),
      Partitioners.fennel(edges, B),
      Partitioners.metisLike(edges, B)
    )
    println(f"${"strategy"}%-12s${"cut"}%7s${"imbal"}%7s${"AC-B rnds"}%10s${"AC-B msgs"}%12s${"AC-B s"}%8s" +
      f"${"SC-B rnds"}%10s${"SC-B msgs"}%12s${"SC-B s"}%8s")
    val out = for (p <- strategies) yield {
      val mode = BlockCentric(p.assign, B)
      val (ac, acWall) = BenchUtil.timed(AnchoredCoreness.run(g, mode))
      val (sc, scWall) = BenchUtil.timed(SkylineCoreness.run(g, mode))
      val sizes = p.blockSizes(ids)
      val imbalance = sizes.max.toDouble / (ids.size.toDouble / B)
      val row = Row(p.cutFraction(edges), imbalance, ac.totalRounds, ac.totalMessages, acWall, sc.rounds, sc.totalMessages, scWall)
      println(f"${p.name}%-12s${row.cut}%7.3f${row.balance}%7.2f${row.acRounds}%10d${row.acMsgs}%12d${row.acWall}%8.2f" +
        f"${row.scRounds}%10d${row.scMsgs}%12d${row.scWall}%8.2f")
      BenchUtil.clearCache(spark)
      p.name -> row
    }
    out.toMap
  }

  test("HASH is the most balanced strategy") {
    assert(rows("HASH").balance <= rows.values.map(_.balance).min + 0.05)
  }

  test("locality-aware strategies cut no more edges than HASH") {
    assert(rows("FENNEL").cut <= rows("HASH").cut * 1.02)
    assert(rows("METIS-like").cut <= rows("HASH").cut * 1.02)
  }

  test("communication tracks the cut: lower-cut strategies send fewer messages (Fig. 7 shape)") {
    val byCut = rows.toSeq.sortBy(_._2.cut)
    val (lowest, highest) = (byCut.head._2, byCut.last._2)
    assert(lowest.scMsgs <= highest.scMsgs, s"${byCut.head._1} vs ${byCut.last._1}")
    assert(lowest.acMsgs <= highest.acMsgs, s"${byCut.head._1} vs ${byCut.last._1}")
  }

  test("all strategies produce the same decomposition (sanity)") {
    // round counts can differ; result equality was asserted in unit tests —
    // here just check rounds are positive for every strategy
    rows.values.foreach(r => assert(r.acRounds > 0 && r.scRounds > 0))
  }
}
