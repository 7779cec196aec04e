package repro.bench

import repro.SparkSpec
import repro.report.Tables

/** T2 — single-query engine cost per anomaly-model type. The paper's
  * requirement is timely analytics over ~50GB/day/100 hosts (~60 events/s
  * sustained, bursts far higher); every model type must process the
  * replayed feed far faster than real time.
  */
class T2ThroughputBench extends SparkSpec {

  private lazy val result = Tables.t2(spark, sfs = Seq(0.005, 0.05, 0.5))

  test("T2: throughput table") {
    val (table, rows) = result
    info("\n" + table)
    println(s"\n== T2: per-model engine throughput ==\n$table")
    assert(rows.size == 12) // 4 models x 3 stream sizes
  }

  test("T2: every model sustains the monitored feed rate with headroom") {
    // 100 hosts at ~50GB/day is on the order of 10^2 events/s. Small runs
    // carry Spark's fixed per-job overhead (a few hundred ms per query), so
    // demand 1 order of magnitude headroom there and 3 orders at the
    // 1M-event scale where overheads have amortised.
    result._2.foreach(r =>
      assert(r.eventsPerSec > 1_000, s"${r.model}@${r.events}: ${r.eventsPerSec}/s"))
    result._2.filter(_.events > 500_000).foreach(r =>
      assert(r.eventsPerSec > 100_000, s"${r.model}@${r.events}: ${r.eventsPerSec}/s"))
  }

  test("T2: throughput grows with stream size (fixed overheads amortise)") {
    for (model <- Seq("rule", "timeseries", "invariant", "outlier")) {
      val byN = result._2.filter(_.model == model).sortBy(_.events)
      assert(byN.last.eventsPerSec > byN.head.eventsPerSec,
        s"$model did not amortise: $byN")
    }
  }

  test("T2: attack remains detected at every scale") {
    // The rule query (Query 1) must keep finding its single exfiltration
    // chain as the stream grows.
    result._2.filter(_.model == "rule").foreach(r => assert(r.alerts == 1))
  }
}
