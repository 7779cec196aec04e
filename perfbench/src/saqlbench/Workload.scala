package saqlbench

import scala.collection.mutable
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{AlertRecord, Columns, EventMatcher, QueryEngine, StateMaintainer}
import repro.saql.Ast.{AttrRef, SaqlQuery}

/** One benchmark workload: a generated input, a query set and a loop. */
trait Workload {
  def name: String
  /** Which generator feeds it ("attack" or "benign"), for fingerprints. */
  def inputName: String
  def queries: Seq[QueryText]
  def generate(spark: SparkSession, seed: Long): DataFrame
  def run(ctx: Ctx): RunResult
}

/** The workload's input and parsed queries, ready to run. */
final case class Prepared(stream: DataFrame, rows: Long,
                          parsed: Seq[(QueryText, SaqlQuery)],
                          generateMs: Double, parseMs: Double, cachedMb: Double)

object Setup {
  /** Generates, caches and counts the input and parses the queries. */
  def prepare(ctx: Ctx, wl: Workload): Prepared = {
    val t0 = System.nanoTime()
    val stream = wl.generate(ctx.spark, ctx.seed).cache()
    val rows = stream.count()
    val t1 = System.nanoTime()
    val parsed = wl.queries.map(q => q -> q.parse())
    val t2 = System.nanoTime()
    val cachedMb = ctx.spark.sparkContext.getRDDStorageInfo
      .map(i => i.memSize + i.diskSize).sum / 1048576.0
    Prepared(stream, rows, parsed, Stats.ms(t0, t1), Stats.ms(t1, t2), cachedMb)
  }

  /** Passes a closed loop measures: `seconds` of passes at the nominal
    * pass time, at least one.
    */
  def passes(seconds: Int, nominalPassMs: Double): Int =
    math.max(1, math.round(seconds * 1000.0 / nominalPassMs).toInt)

  /** Passes of the traced loop: half of `passes`, rounded up. Each traced
    * pass also runs its splits, and the traced run must end in time.
    */
  def tracedPasses(passes: Int): Int = (passes + 1) / 2

  /** Runs `pass` `passes` times, so that two commits are timed on the same
    * work. It stops early only once `capMs` have gone, which bounds a run
    * on an overloaded host.
    */
  def repeat(passes: Int, capMs: Double)(pass: => Unit): Unit = {
    val stop = System.nanoTime() + (capMs * 1e6).toLong
    var i = 0
    while (i < passes && (i == 0 || System.nanoTime() < stop)) {
      pass
      i += 1
    }
  }

  /** Wall seconds from the start of `main` until now, the first timed
    * operation: session start, input, parsing and warm-up, once, cold.
    */
  def setupS(ctx: Ctx): Double = (System.nanoTime() - ctx.startedNs) / 1e9

  /** Runs each query once over the input as a counted operation; the
    * alerts of those that succeed go into `into`.
    */
  def warmUp(out: Outcome, prep: Prepared, into: mutable.Map[String, Seq[AlertRecord]]): Unit =
    for ((qt, q) <- prep.parsed)
      out.op(s"${qt.label} warm-up")(QueryEngine.run(prep.stream, q))(_ => None).foreach(into(qt.label) = _)
}

object Alerts {
  private def key(a: AlertRecord): (Long, Long, String) =
    (a.ts, a.win, a.values.toSeq.sorted.mkString(","))

  /** Order-independent equality of two alert lists. */
  def same(a: Seq[AlertRecord], b: Seq[AlertRecord]): Boolean =
    a.size == b.size && a.sortBy(key) == b.sortBy(key)

  /** The reason a demo query's alerts are wrong, if they are: no alert
    * with the attack step's evidence, or an advanced query alerting on a
    * benign actor.
    */
  def demoCheck(label: String, alerts: Seq[AlertRecord]): Option[String] =
    if (!alerts.exists(a => Queries.evidence(label)(a.values)))
      Some(s"no alert carries the step's evidence (${alerts.size} alerts)")
    else Queries.actorOnly.get(label)
      .flatMap(ok => alerts.find(a => !ok(a.values)))
      .map(a => s"alert on a benign actor: $a")
}

/** The traced splits: the program's calls re-enacted from the public
  * parts each layer exposes, so that each layer's share is timed on the
  * same work the whole call does. Each split checks that it reproduces
  * the whole call's alerts.
  */
object Splits {

  /** Rule query: pattern filters, then sequence join + projection. */
  def rule(ctx: Ctx, out: Outcome, events: DataFrame, qt: QueryText, q: SaqlQuery,
           whole: Seq[AlertRecord]): Unit = {
    val t = ctx.tracer
    val counts = out.op(s"${qt.label} matcher split")(t.span("matcher.split", query = qt.label) {
      val candidates = q.patterns.map { p =>
        t.span("matcher.filter", query = qt.label) {
          events.filter(Columns.patternPredicate(q, p)).count()
        }
      }.sum
      val rows = t.span("matcher.join", query = qt.label) {
        EventMatcher.project(EventMatcher.matches(events, q), q).collect()
      }
      val names = q.ret.items.collect { case AttrRef(r) => r.colName }
      val alerts = rows.toSeq.map { r =>
        AlertRecord(q.name, -1L, r.getAs[Long]("__alert_ts"),
          names.map(n => n -> String.valueOf(r.getAs[Any](n))).toMap)
      }
      (alerts, (candidates, rows.length.toLong))
    }) { case (a, _) =>
      if (Alerts.same(a, whole)) None else Some("re-enacted matcher alerts differ from QueryEngine.run")
    }
    counts.foreach { case (_, c) =>
      ctx.matcherCounts.getOrElseUpdate(qt.label, mutable.ArrayBuffer.empty) += c
    }
  }

  /** Stateful query: window states, collected to the driver. */
  def state(ctx: Ctx, out: Outcome, events: DataFrame, qt: QueryText, q: SaqlQuery): Unit =
    out.op(s"${qt.label} state split")(ctx.tracer.span("state.agg", query = qt.label) {
      StateMaintainer.collectStates(StateMaintainer.states(events, q), q)
    })(_ => None).foreach { byWindow =>
      ctx.stateCounts.getOrElseUpdate(qt.label, mutable.ArrayBuffer.empty) +=
        ((byWindow.map(_._2.size.toLong).sum, byWindow.size.toLong))
    }
}

/** Builds the per-layer metric set; every workload prints the same names,
  * with 0 for a layer it does not exercise.
  */
final class LayerMetrics(ctx: Ctx, prep: Prepared) {
  private val r = ctx.report()
  private val out = mutable.LinkedHashMap.empty[String, (Double, String)]
  private def put(name: String, v: Double, unit: String): Unit = out(name) = (v, unit)
  private def med(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else Stats.median(xs)

  /** Traced `QueryEngine.run` calls by query label, and per-label medians. */
  private val calls: Map[String, Seq[Span]] = r.named("engine.run").groupBy(_.query)
  private def callMs(label: String): Double = med(calls.getOrElse(label, Nil).map(_.ms))
  private def aggMs(label: String): Double = med(r.named("state.agg", label).map(_.ms))

  /** `extra` holds values a workload measured itself: alerts and the
    * scheduler's parts.
    */
  def build(iterationSpans: Seq[Span], untracedMs: Seq[Double], tracedMs: Seq[Double],
            extra: Map[String, Double]): Seq[Metric] = {
    put("saql.parse_ms", prep.parseMs, "ms")
    put("events.generate_ms", prep.generateMs, "ms")
    put("events.rows", prep.rows.toDouble, "rows")
    put("events.cached_mb", prep.cachedMb, "MB")

    val labels = calls.keySet.toSeq.sorted
    val stateful = labels.filterNot(Queries.ruleLabels)
    put("engine.rule_ms", labels.filter(Queries.ruleLabels).map(callMs).sum, "ms")
    put("engine.stateful_ms", stateful.map(callMs).sum, "ms")
    Queries.demo.foreach(q => put(s"engine.ms.${q.label}", callMs(q.label), "ms"))

    for (q <- Queries.demo if Queries.ruleLabels(q.label)) {
      val splits = r.named("matcher.split", q.label)
      // Filter time per split: the split's matcher.filter children.
      val filterMs = splits.map(s => r.within(s, "matcher.filter").map(_.ms).sum)
      // The join re-runs the filters inside Spark; floored at 0 because for
      // a single pattern the two timings differ by noise only.
      val joinMs = splits.map(s => math.max(0.0, r.within(s, "matcher.join").map(_.ms).sum -
        r.within(s, "matcher.filter").map(_.ms).sum))
      val counts = ctx.matcherCounts.getOrElse(q.label, Nil).toSeq
      val cand = med(counts.map(_._1.toDouble))
      val matched = med(counts.map(_._2.toDouble))
      put(s"matcher.filter_ms.${q.label}", med(filterMs), "ms")
      put(s"matcher.candidate_rows.${q.label}", cand, "rows")
      put(s"matcher.join_ms.${q.label}", med(joinMs), "ms")
      put(s"matcher.match_rows.${q.label}", matched, "rows")
      put(s"matcher.yield.${q.label}", if (cand == 0) 0.0 else matched / cand, "ratio")
    }

    put("state.agg_ms", stateful.map(aggMs).sum, "ms")
    put("state.rows", stateful.map(l => med(ctx.stateCounts.getOrElse(l, Nil).map(_._1.toDouble).toSeq)).sum, "rows")
    put("state.windows", stateful.map(l => med(ctx.stateCounts.getOrElse(l, Nil).map(_._2.toDouble).toSeq)).sum, "count")
    // Floored at 0 per query: a checker with little to do differs from
    // the state aggregation by noise only.
    put("checker.ms", stateful.filter(l => r.named("state.agg", l).nonEmpty)
      .map(l => math.max(0.0, callMs(l) - aggMs(l))).sum, "ms")
    put("checker.alerts", extra.getOrElse("checker.alerts", 0.0), "count")

    Seq("sched.group_ms" -> "ms", "sched.groups" -> "count", "sched.master_ms" -> "ms",
        "sched.master_rows" -> "rows", "sched.dependent_ms" -> "ms",
        "sched.reported_rows_scanned" -> "rows", "sched.reported_rows_copied" -> "rows")
      .foreach { case (n, u) => put(n, extra.getOrElse(n, 0.0), u) }

    for (kind <- Seq("query", "pass", "tick"); (n, v, u) <- r.sparkMetrics(kind)) put(n, v, u)
    for ((n, v, u) <- r.selfByLayer(Seq("engine", "matcher", "state", "sched"), iterationSpans.size))
      put(n, v, u)

    put("trace.coverage", med(iterationSpans.map(r.coverage)), "ratio")
    val un = med(untracedMs)
    val tr = med(tracedMs)
    put("trace.untraced_ms", un, "ms")
    put("trace.traced_ms", tr, "ms")
    put("trace.overhead_ms", tr - un, "ms")
    out.toSeq.map { case (n, (v, u)) => Metric(n, v, u) }
  }
}
