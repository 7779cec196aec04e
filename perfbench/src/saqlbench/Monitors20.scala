package saqlbench

import scala.collection.mutable
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{AlertRecord, QueryEngine, Scheduler}
import repro.events.MonitoringData

/** `monitors20`: 20 compatible network-volume monitors (one unconstrained
  * master, 19 constrained dependents) submitted together through
  * `Scheduler.runMasterDependent` over the benign stream; a closed loop of
  * one client repeats the scheduled batch.
  */
object Monitors20 extends Workload {
  val name = "monitors20"
  val inputName = "benign"
  val queries: Seq[QueryText] = Queries.monitors(20)

  /** 20k benign events on 2 hosts. */
  val Sf = 0.01
  val WarmPasses = 2
  /** The median warm pass on 4 shared cores when this was set; see Demo8. */
  val NominalPassMs = 3000.0

  def generate(spark: SparkSession, seed: Long): DataFrame =
    MonitoringData.events(spark, sf = Sf, seed = seed)

  def run(ctx: Ctx): RunResult = {
    val prep = Setup.prepare(ctx, this)
    val qs = prep.parsed.map(_._2)
    val out = new Outcome
    // The last scheduled run that returned, for the program's own ExecStats.
    var whole: Option[Scheduler.ScheduledRun] = None
    def schedule(what: String): Option[Scheduler.ScheduledRun] = {
      val r = out.op(what)(Scheduler.runMasterDependent(prep.stream, qs))(_ => None)
      r.foreach(x => whole = Some(x))
      r
    }
    for (_ <- 1 to WarmPasses) schedule("runMasterDependent warm-up")
    val setupS = Setup.setupS(ctx)

    // Alerts of every pass, checked once the reference exists.
    val passAlerts = mutable.ArrayBuffer.empty[(String, Map[String, Seq[AlertRecord]])]
    val passMs = mutable.ArrayBuffer.empty[Double]
    def timed(passes: Int): Unit =
      Setup.repeat(passes, 1.5 * passes * NominalPassMs) {
        val p0 = System.nanoTime()
        val res = schedule("runMasterDependent")
        passMs += Stats.ms(p0, System.nanoTime())
        res.foreach(r => passAlerts += (("runMasterDependent", r.alerts)))
      }

    val tracedMs = mutable.ArrayBuffer.empty[Double]
    val parts = mutable.ArrayBuffer.empty[Seq[(String, Double)]]
    val n = Setup.passes(ctx.seconds, NominalPassMs)
    if (!ctx.traced) timed(n)
    else {
      // Untraced, traced, untraced again: see Demo8.
      timed(math.max(1, n / 2))
      ctx.traceOn()
      val tn = Setup.tracedPasses(n)
      Setup.repeat(tn, 3.0 * tn * NominalPassMs) {
        val p0 = System.nanoTime()
        val res = out.op("re-enacted runMasterDependent")(reenact(ctx, prep))(_ => None)
        tracedMs += Stats.ms(p0, System.nanoTime())
        res.foreach { case (alerts, part) =>
          passAlerts += (("re-enacted runMasterDependent", alerts))
          parts += part
        }
        ctx.tracer.span("bench.split") { stateSplit(ctx, out, prep) }
      }
      ctx.traceOff()
      timed(math.max(1, n / 2))
    }

    // The program's own T3 guard: sharing must not change any alert.
    // Without a reference no pass can be checked; the failed reference
    // operation alone then marks the run incorrect.
    val reference = out.op("runIndependent reference")(Scheduler.runIndependent(prep.stream, qs).alerts)(_ => None)
    for (ref <- reference; (what, a) <- passAlerts
         if a.keySet != ref.keySet || ref.exists { case (k, v) => !Alerts.same(v, a(k)) })
      out.fail(what, "alerts differ from runIndependent")

    val info = Seq(
      s"n passes=${passMs.size} queries_per_pass=${qs.size} events_per_pass=${prep.rows} " +
        s"alerts_per_pass=${reference.fold(0)(_.values.map(_.size).sum)}" +
        (if (ctx.traced) s" traced_passes=${tracedMs.size}" else ""),
      s"info query_ms_p90 ${Stats.pct(passMs.toSeq.map(_ / qs.size), 90)} ms",
      s"info setup_parts session_s=${(ctx.sessionNs - ctx.startedNs) / 1e9} " +
        s"generate_ms=${prep.generateMs} parse_ms=${prep.parseMs}",
    )
    // Every monitor's alerts arrive when the scheduled batch returns: a
    // query's latency is the pass time, its share of the work pass / 20.
    val perQuery = passMs.toSeq.map(_ / qs.size)
    val e2e = Seq(
      Metric("setup_s", setupS, "s"),
      Metric("events_per_s", prep.rows * passMs.size / (passMs.sum / 1e3), "events/s"),
      Metric("pass_ms_p50", Stats.median(passMs.toSeq), "ms"),
      Metric("query_ms_p50", Stats.median(perQuery), "ms"),
    )
    RunResult(out, e2e, info, () => {
      val extra = parts.flatten.groupBy(_._1).map { case (k, v) => k -> Stats.median(v.map(_._2).toSeq) } ++
        whole.fold(Map.empty[String, Double])(w => Map(
          "sched.reported_rows_scanned" -> w.stats.rowsScanned.toDouble,
          "sched.reported_rows_copied" -> w.stats.rowsCopied.toDouble,
          "checker.alerts" -> w.alerts.values.map(_.size).sum.toDouble))
      new LayerMetrics(ctx, prep).build(ctx.report().ofKind("pass"), passMs.toSeq, tracedMs.toSeq, extra)
    })
  }

  /** `runMasterDependent` re-enacted from its public parts, one span per
    * layer. Returns the alerts and the `sched.*` parts of the pass.
    */
  private def reenact(ctx: Ctx, prep: Prepared)
      : (Map[String, Seq[AlertRecord]], Seq[(String, Double)]) = {
    val t = ctx.tracer
    val label = prep.parsed.map { case (qt, q) => q.name -> qt.label }.toMap
    t.span("bench.pass", kind = "pass") {
      t.span("events.count") { prep.stream.count() }
      val g0 = System.nanoTime()
      val groups = t.span("sched.group") { Scheduler.group(prep.parsed.map(_._2)) }
      val groupMs = Stats.ms(g0, System.nanoTime())
      var masterMs, masterRows, depMs = 0.0
      val alerts = Map.newBuilder[String, Seq[AlertRecord]]
      for (g <- groups) {
        val m0 = System.nanoTime()
        val masterDf = g.masterFilter(prep.stream).cache()
        masterRows += t.span("sched.master") { masterDf.count() }
        masterMs += Stats.ms(m0, System.nanoTime())
        for (q <- g.members) {
          val d0 = System.nanoTime()
          alerts += q.name -> t.span("engine.run", kind = "query", query = label(q.name)) {
            QueryEngine.run(masterDf, q)
          }
          depMs += Stats.ms(d0, System.nanoTime())
        }
        masterDf.unpersist()
      }
      (alerts.result(), Seq("sched.groups" -> groups.size.toDouble, "sched.group_ms" -> groupMs,
        "sched.master_ms" -> masterMs, "sched.master_rows" -> masterRows, "sched.dependent_ms" -> depMs))
    }
  }

  /** Window states of every dependent, over its group's master output. */
  private def stateSplit(ctx: Ctx, out: Outcome, prep: Prepared): Unit = {
    val byName = prep.parsed.map { case (qt, q) => q.name -> qt }.toMap
    val groups = out.op("state split grouping")(Scheduler.group(prep.parsed.map(_._2)))(_ => None)
    for (g <- groups.getOrElse(Nil)) {
      out.op("state split master") {
        val df = g.masterFilter(prep.stream).cache()
        df.count()
        df
      }(_ => None).foreach { masterDf =>
        g.members.foreach(q => Splits.state(ctx, out, masterDf, byName(q.name), q))
        masterDf.unpersist()
      }
    }
  }
}
