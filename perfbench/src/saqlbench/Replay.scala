package saqlbench

import scala.collection.mutable
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, count, floor, lit}
import repro.core.{AlertRecord, QueryEngine}
import repro.events.{AttackTrace, MonitoringData, StreamReplayer}

/** `replay`: an open loop of fixed-rate ticks. Tick `k` is due `k * TickMs`
  * after the round starts and delivers the next `SliceMs` of event time;
  * the client then re-runs the 8 demo queries over everything delivered so
  * far and records when each query's evidence first appears.
  */
object Replay extends Workload {
  val name = "replay"
  val inputName = "attack"
  val queries: Seq[QueryText] = Queries.demo

  val Ticks = 3
  /** Wall interval between ticks. A tick of 8 queries took 3.6-5.6 s on 4
    * shared cores when this was set, so the schedule is sustainable there.
    */
  val TickMs = 6000L
  /** Event time per tick: the 2-hour stream in `Ticks` slices. */
  val SliceMs: Long = MonitoringData.DefaultDurationMs / Ticks
  val WarmPasses = 2
  /** 10k benign events plus the attack, small so that per-call fixed
    * cost dominates.
    */
  val Sf = 0.005

  def generate(spark: SparkSession, seed: Long): DataFrame =
    AttackTrace.withBackground(spark, sf = Sf, seed = seed)

  /** Samples of one round of ticks. */
  final class Round {
    val tickMs = mutable.ArrayBuffer.empty[Double]    // due -> all 8 returned
    val serviceMs = mutable.ArrayBuffer.empty[Double] // start -> all 8 returned
    val lateMs = mutable.ArrayBuffer.empty[Double]    // due -> start
    val callMs = mutable.ArrayBuffer.empty[Double]
    val detectMs = mutable.LinkedHashMap.empty[String, Double]
    val results = mutable.ArrayBuffer.empty[Map[String, Seq[AlertRecord]]]
  }

  private def tickEnd(k: Int): Long = if (k == Ticks - 1) Long.MaxValue else (k + 1) * SliceMs

  def run(ctx: Ctx): RunResult = {
    val prep = Setup.prepare(ctx, this)
    val out = new Outcome
    val wholeRuns = mutable.HashMap.empty[String, Seq[AlertRecord]]
    for (_ <- 1 to WarmPasses) Setup.warmUp(out, prep, wholeRuns)
    val setupS = Setup.setupS(ctx)
    val whole = wholeRuns.toMap

    val rounds = math.max(1, math.round(ctx.seconds * 1000.0 / (Ticks * TickMs)).toInt)
    // Traced run: an untraced, a traced and another untraced round, so
    // that the overhead estimate is not biased by the JVM warming up.
    val (untraced, traced) =
      if (!ctx.traced) ((1 to rounds).map(_ => round(ctx, prep, whole, out)), None)
      else {
        val a1 = round(ctx, prep, whole, out)
        ctx.traceOn()
        val b = round(ctx, prep, whole, out)
        // Splits after the round, so they cannot delay ticks, and over the
        // last tick's prefix only, so that the traced run ends in time.
        val last = Ticks - 1
        ctx.tracer.span("bench.split") {
          for (prefix <- select(out, prep, last); (qt, q) <- prep.parsed) {
            if (Queries.ruleLabels(qt.label))
              b.results(last).get(qt.label).foreach(Splits.rule(ctx, out, prefix, qt, q, _))
            else Splits.state(ctx, out, prefix, qt, q)
          }
        }
        ctx.traceOff()
        (Seq(a1, round(ctx, prep, whole, out)), Some(b))
      }

    // Rows each tick delivers in total, counted outside the timed rounds.
    val perTick = prep.stream.groupBy(floor(col("ts") / SliceMs).as("k")).agg(count(lit(1)).as("n"))
      .collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    val prefixRows = (0 until Ticks).map(k =>
      perTick.collect { case (i, n) if i <= k || k == Ticks - 1 => n }.sum)

    val service = untraced.flatMap(_.serviceMs)
    val detect = untraced.flatMap(_.detectMs.values)
    val calls = untraced.flatMap(_.callMs)
    val info = Seq(
      s"n rounds=${untraced.size} ticks=${service.size} calls=${calls.size} detections=${detect.size} tick_interval_ms=$TickMs slice_ms=$SliceMs",
      s"info query_ms_p90 ${Stats.pct(calls, 90)} ms",
      s"info detect_ms_p50 ${Stats.median(detect)} ms",
      s"info detect_ms_max ${Stats.pct(detect, 100)} ms",
      s"info tick_ms_p50 ${Stats.median(untraced.flatMap(_.tickMs))} ms",
      s"info late_ms_max ${Stats.pct(untraced.flatMap(_.lateMs), 100)} ms",
      s"info setup_parts session_s=${(ctx.sessionNs - ctx.startedNs) / 1e9} " +
        s"generate_ms=${prep.generateMs} parse_ms=${prep.parseMs}",
    )
    val e2e = Seq(
      Metric("setup_s", setupS, "s"),
      Metric("events_per_s", untraced.size * prefixRows.sum / (service.sum / 1e3), "events/s"),
      Metric("pass_ms_p50", Stats.median(service), "ms"),
      Metric("query_ms_p50", Stats.median(calls), "ms"),
    )
    RunResult(out, e2e, info, () =>
      new LayerMetrics(ctx, prep).build(ctx.report().ofKind("tick"), service,
        traced.get.serviceMs.toSeq, Map("checker.alerts" -> Demo8.statefulAlerts(whole))))
  }

  /** Everything delivered by the end of tick `k`, as a counted operation. */
  private def select(out: Outcome, prep: Prepared, k: Int): Option[DataFrame] =
    out.op(s"tick $k select")(StreamReplayer.select(prep.stream, Nil, 0L, tickEnd(k)))(_ => None)

  private def round(ctx: Ctx, prep: Prepared, whole: Map[String, Seq[AlertRecord]],
                    out: Outcome): Round = {
    val r = new Round
    val t = ctx.tracer
    val start = System.nanoTime()
    for (k <- 0 until Ticks) {
      val due = start + k * TickMs * 1000000L
      while (System.nanoTime() < due) Thread.sleep(math.max(0L, (due - System.nanoTime()) / 1000000L), 0)
      val s0 = System.nanoTime()
      r.lateMs += Stats.ms(due, s0)
      val last = k == Ticks - 1
      val res = mutable.LinkedHashMap.empty[String, Seq[AlertRecord]]
      t.span("bench.tick", kind = "tick") {
        val prefix = t.span("events.select") { select(out, prep, k) }
        for (events <- prefix; (qt, q) <- prep.parsed) {
          val c0 = System.nanoTime()
          val a = t.span("engine.run", kind = "query", query = qt.label) {
            out.op(s"${qt.label} tick $k")(QueryEngine.run(events, q)) { a =>
              if (!last) None
              else whole.get(qt.label) match {
                case None                           => Some("the whole-stream run returned no alerts to compare")
                case Some(w) if !Alerts.same(a, w) => Some("last tick differs from the whole-stream run")
                case _                              => Alerts.demoCheck(qt.label, a)
              }
            }
          }
          val c1 = System.nanoTime()
          r.callMs += Stats.ms(c0, c1)
          a.foreach { alerts =>
            res(qt.label) = alerts
            if (!r.detectMs.contains(qt.label) && alerts.exists(x => Queries.evidence(qt.label)(x.values)))
              r.detectMs(qt.label) = Stats.ms(due, c1)
          }
        }
      }
      val e = System.nanoTime()
      r.tickMs += Stats.ms(due, e)
      r.serviceMs += Stats.ms(s0, e)
      r.results += res.toMap
    }
    for (qt <- queries if !r.detectMs.contains(qt.label))
      out.fail(s"${qt.label} replay", "no detection in the round")
    r
  }
}
