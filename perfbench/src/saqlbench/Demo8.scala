package saqlbench

import scala.collection.mutable
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{AlertRecord, QueryEngine}
import repro.events.AttackTrace

/** `demo8`: the demo's 8 detection queries, each submitted alone through
  * `QueryEngine.run` over one cached attack-in-background stream; a closed
  * loop of one client repeats passes over the query set.
  */
object Demo8 extends Workload {
  val name = "demo8"
  val inputName = "attack200k"
  val queries: Seq[QueryText] = Queries.demo

  /** 200k benign events on 2 hosts (victim and database server) plus the
    * 30-event attack. At this size the pass time grows with the rows: a
    * pass took 4.8 s at 100k events and 5.6 s at 200k.
    */
  val Sf = 0.1
  val WarmPasses = 2
  /** The median warm pass on 4 shared cores when this was set. A run
    * measures a fixed number of passes, `seconds / NominalPassMs`, so
    * that two commits are timed on the same work.
    */
  val NominalPassMs = 5500.0

  def generate(spark: SparkSession, seed: Long): DataFrame =
    AttackTrace.withBackground(spark, sf = Sf, seed = seed)

  /** Samples of one loop phase. */
  final class Samples {
    val passMs = mutable.ArrayBuffer.empty[Double]
    val callMs = mutable.ArrayBuffer.empty[Double]
    val detectMs = mutable.ArrayBuffer.empty[Double]

    def ++(o: Samples): Samples = {
      val r = new Samples
      Seq(this, o).foreach { x =>
        r.passMs ++= x.passMs; r.callMs ++= x.callMs; r.detectMs ++= x.detectMs
      }
      r
    }
  }

  def run(ctx: Ctx): RunResult = {
    val prep = Setup.prepare(ctx, this)
    val out = new Outcome
    val warm = mutable.HashMap.empty[String, Seq[AlertRecord]]
    for (_ <- 1 to WarmPasses) Setup.warmUp(out, prep, warm)
    val setupS = Setup.setupS(ctx)

    val n = Setup.passes(ctx.seconds, NominalPassMs)
    def phase(passes: Int, traced: Boolean) = loop(ctx, prep, warm, out, passes,
      (if (traced) 3.0 else 1.5) * passes * NominalPassMs, traced)
    // Traced run: untraced, traced, untraced again, so that the overhead
    // estimate is not biased by the JVM still warming up.
    val (untraced, traced) =
      if (!ctx.traced) (phase(n, traced = false), None)
      else {
        val a1 = phase(math.max(1, n / 2), traced = false)
        ctx.traceOn()
        val b = phase(Setup.tracedPasses(n), traced = true)
        ctx.traceOff()
        (a1 ++ phase(math.max(1, n / 2), traced = false), Some(b))
      }

    val s = untraced
    val info = Seq(
      s"n passes=${s.passMs.size} calls=${s.callMs.size} detections=${s.detectMs.size} events_per_pass=${prep.rows}" +
        traced.fold("")(t => s" traced_passes=${t.passMs.size}"),
      s"info query_ms_p90 ${Stats.pct(s.callMs.toSeq, 90)} ms",
      s"info detect_ms_p50 ${Stats.median(s.detectMs.toSeq)} ms",
      s"info detect_ms_max ${Stats.pct(s.detectMs.toSeq, 100)} ms",
      s"info setup_parts session_s=${(ctx.sessionNs - ctx.startedNs) / 1e9} " +
        s"generate_ms=${prep.generateMs} parse_ms=${prep.parseMs}",
    )
    RunResult(out, endToEnd(setupS, prep.rows, s.passMs.toSeq, s.callMs.toSeq), info, () =>
      new LayerMetrics(ctx, prep).build(ctx.report().ofKind("pass"), s.passMs.toSeq,
        traced.get.passMs.toSeq, Map("checker.alerts" -> statefulAlerts(warm.toMap))))
  }

  /** Alerts of the stateful (advanced) demo queries in one pass. */
  def statefulAlerts(alerts: Map[String, Seq[AlertRecord]]): Double =
    alerts.collect { case (l, a) if !Queries.ruleLabels(l) => a.size }.sum.toDouble

  /** The gated end-to-end metrics of a closed loop over passes. */
  def endToEnd(setupS: Double, rowsPerPass: Long, passMs: Seq[Double],
               callMs: Seq[Double]): Seq[Metric] = Seq(
    Metric("setup_s", setupS, "s"),
    Metric("events_per_s", rowsPerPass * passMs.size / (passMs.sum / 1e3), "events/s"),
    Metric("pass_ms_p50", Stats.median(passMs), "ms"),
    Metric("query_ms_p50", Stats.median(callMs), "ms"),
  )

  private def loop(ctx: Ctx, prep: Prepared, warm: collection.Map[String, Seq[AlertRecord]],
                   out: Outcome, passes: Int, capMs: Double, traced: Boolean): Samples = {
    val s = new Samples
    val t = ctx.tracer
    Setup.repeat(passes, capMs) {
      val results = mutable.LinkedHashMap.empty[String, Seq[AlertRecord]]
      val p0 = System.nanoTime()
      t.span("bench.pass", kind = "pass") {
        for ((qt, q) <- prep.parsed) {
          val c0 = System.nanoTime()
          val res = t.span("engine.run", kind = "query", query = qt.label) {
            out.op(s"${qt.label} run")(QueryEngine.run(prep.stream, q)) { a =>
              Alerts.demoCheck(qt.label, a).orElse(
                warm.get(qt.label) match {
                  case None                           => Some("the warm-up pass returned no alerts to compare")
                  case Some(w) if !Alerts.same(a, w) => Some("alerts differ from the warm-up pass")
                  case _                              => None
                })
            }
          }
          val c1 = System.nanoTime()
          s.callMs += Stats.ms(c0, c1)
          res.foreach { a =>
            results(qt.label) = a
            if (a.exists(x => Queries.evidence(qt.label)(x.values))) s.detectMs += Stats.ms(p0, c1)
          }
        }
      }
      s.passMs += Stats.ms(p0, System.nanoTime())
      if (traced) t.span("bench.split") {
        for ((qt, q) <- prep.parsed) {
          if (Queries.ruleLabels(qt.label))
            results.get(qt.label).foreach(Splits.rule(ctx, out, prep.stream, qt, q, _))
          else Splits.state(ctx, out, prep.stream, qt, q)
        }
      }
    }
    s
  }
}
