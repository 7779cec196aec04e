package repro.bench

import repro.SparkSpec
import repro.report.Tables

/** T3 — the master-dependent-query scheme vs independent per-query stream
  * copies (the "existing stream systems" arm). The paper claims the scheme
  * "significantly reduces unnecessary data copies"; the companion SAQL
  * paper reports ~30% memory saving at 20+ concurrent queries. Expected
  * shape: copies shrink by ~N per group and the advantage grows with N.
  */
class T3SchedulerBench extends SparkSpec {

  private lazy val result = Tables.t3(spark, sf = 0.05, ns = Seq(4, 8, 16, 20))

  test("T3: scheduler table") {
    val (table, rows) = result
    info("\n" + table)
    println(s"\n== T3: master-dependent-query scheme (sf=0.05, 100k events) ==\n$table")
    assert(rows.size == 8) // 4 sizes x 2 schemes
  }

  test("T3: one compatible group shares a single stream copy") {
    result._2.filter(_.scheme == "master-dep").foreach(r =>
      assert(r.groups == 1, s"n=${r.n}: ${r.groups} groups"))
  }

  test("T3: scans shrink by the full grouping factor N") {
    for (n <- Seq(4, 8, 16, 20)) {
      val Seq(ind, mdq) = result._2.filter(_.n == n)
      assert(ind.rowsScanned == n * mdq.rowsScanned,
        s"n=$n: ${ind.rowsScanned} vs ${mdq.rowsScanned}")
    }
  }

  test("T3: copy reduction grows with concurrency (paper shape)") {
    val reductions = Seq(4, 8, 16, 20).map { n =>
      val Seq(ind, mdq) = result._2.filter(_.n == n)
      n -> ind.rowsCopied.toDouble / mdq.rowsCopied
    }
    assert(reductions == reductions.sortBy(_._1))
    assert(reductions.map(_._2) == reductions.map(_._2).sorted,
      s"reduction not monotone: $reductions")
    // The n monitors form one shared state group: one stream copy in all,
    // and no per-query buffer, so the reduction is exactly n.
    assert(reductions.last._2 > 2.5, s"weak reduction at n=20: $reductions")
  }
}
