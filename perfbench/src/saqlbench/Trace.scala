package saqlbench

import scala.collection.mutable
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.{QueryExecution, SparkPlan}
import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanExec, QueryStageExec}
import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
import org.apache.spark.sql.execution.exchange.ReusedExchangeExec
import org.apache.spark.sql.util.QueryExecutionListener
import org.apache.spark.storage.BlockId

/** One timed interval around a call into a layer of the program.
  *
  * `name` is `<layer>.<what>`; `kind` is "query", "pass", "tick" or "" and
  * selects the `spark.<kind>.*` aggregation; `query` is the query label.
  * Nanosecond stamps give durations, millisecond stamps align the span with
  * Spark's job start and end times.
  */
final case class Span(id: Int, parent: Int, name: String, kind: String,
                      query: String, t0Ns: Long, t1Ns: Long, t0Ms: Long,
                      t1Ms: Long) {
  def layer: String = name.takeWhile(_ != '.')
  def ms: Double = (t1Ns - t0Ns) / 1e6
}

/** Spans recorded from the benchmark's side of each layer boundary.
  *
  * Off (the timed run) it only evaluates the body. On (the traced run) it
  * keeps every span in memory and tags the Spark jobs a span submits with
  * its id through a thread-local property, so [[SparkCounters]] can charge
  * jobs, stages and tasks to the span that caused them.
  */
final class Tracer(sc: SparkContext) {
  private var on = false
  private var nextId = 1
  private var open = List.empty[Int]
  private val done = mutable.ArrayBuffer.empty[Span]

  def enable(on: Boolean): Unit = this.on = on

  def span[A](name: String, kind: String = "", query: String = "")(body: => A): A =
    if (!on) body
    else {
      val id = nextId
      nextId += 1
      val parent = open.headOption.getOrElse(0)
      open = id :: open
      sc.setLocalProperty(Tracer.SpanKey, id.toString)
      val t0Ms = System.currentTimeMillis()
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        val t1Ms = System.currentTimeMillis()
        open = open.tail
        sc.setLocalProperty(Tracer.SpanKey, open.headOption.map(_.toString).orNull)
        done += Span(id, parent, name, kind, query, t0, t1, t0Ms, t1Ms)
      }
    }

  def spans: Seq[Span] = done.toSeq
}

object Tracer {
  val SpanKey = "saqlbench.span"
  val MarkerKey = "saqlbench.marker"
}

/** Spark's own counters, charged to benchmark spans.
  *
  * A `SparkListener` sees jobs, stages, tasks and cached-block updates; a
  * `QueryExecutionListener` sees each finished query's physical plan and
  * reads the row counts of its in-memory (cached) scans. Both run on the
  * listener bus; the counters are read only after `SparkContext.stop()`
  * has drained it.
  */
final class SparkCounters extends SparkListener {

  final class Acc {
    var jobs = 0L
    var tasks = 0L
    var busyMs = 0L
    var cpuNs = 0L
    var gcMs = 0L
    var shuffleWrite = 0L
    var shuffleRead = 0L
    var spill = 0L
    var scanRows = 0L
    var peakCached = 0L
    val jobIntervals = mutable.ArrayBuffer.empty[(Long, Long)]
  }

  private val bySpan = mutable.HashMap.empty[Int, Acc]
  private val stageSpan = mutable.HashMap.empty[Int, Int]
  private val jobSpan = mutable.HashMap.empty[Int, (Int, Long)]
  private val blockBytes = mutable.HashMap.empty[BlockId, Long]
  private var cached = 0L
  // Span of the latest job: block updates and finished query executions
  // arrive on the bus after that job started, and the client is serial.
  private var current = 0
  private var marker = -1
  private var markerDone = false

  /** Bytes already cached when the listener is registered. */
  def startCached(bytes: Long): Unit = synchronized { cached = bytes }

  private def acc(span: Int): Acc = bySpan.getOrElseUpdate(span, new Acc)

  private def spanOf(props: java.util.Properties): Int =
    Option(props).flatMap(p => Option(p.getProperty(Tracer.SpanKey)))
      .map(_.toInt).getOrElse(0)

  def counters(span: Int): Option[Acc] = synchronized(bySpan.get(span))

  /** Waits until every event posted so far has reached this listener:
    * the end of a marker job is queued behind all of them.
    */
  def drain(sc: SparkContext): Unit = {
    sc.setLocalProperty(Tracer.MarkerKey, "1")
    try sc.parallelize(Seq(1), 1).count()
    finally sc.setLocalProperty(Tracer.MarkerKey, null)
    val deadline = System.nanoTime() + 10_000_000_000L
    synchronized {
      while (!markerDone && System.nanoTime() < deadline) wait(10)
    }
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    if (Option(e.properties).exists(_.getProperty(Tracer.MarkerKey) != null)) {
      marker = e.jobId
      return
    }
    val s = spanOf(e.properties)
    jobSpan(e.jobId) = (s, e.time)
    current = s
    val a = acc(s)
    a.jobs += 1
    a.peakCached = math.max(a.peakCached, cached)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    if (e.jobId == marker) {
      markerDone = true
      notifyAll()
    }
    jobSpan.remove(e.jobId).foreach { case (s, t0) =>
      acc(s).jobIntervals += ((t0, e.time))
    }
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    stageSpan(e.stageInfo.stageId) = spanOf(e.properties)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val a = acc(stageSpan.getOrElse(e.stageId, 0))
    a.tasks += 1
    val m = e.taskMetrics
    if (m != null) {
      a.busyMs += m.executorRunTime
      a.cpuNs += m.executorCpuTime
      a.gcMs += m.jvmGCTime
      a.shuffleWrite += m.shuffleWriteMetrics.bytesWritten
      a.shuffleRead += m.shuffleReadMetrics.totalBytesRead
      a.spill += m.memoryBytesSpilled + m.diskBytesSpilled
    }
  }

  override def onBlockUpdated(e: SparkListenerBlockUpdated): Unit = synchronized {
    val info = e.blockUpdatedInfo
    if (info.blockId.isRDD) {
      val now = if (info.storageLevel.isValid) info.memSize + info.diskSize else 0L
      cached += now - blockBytes.getOrElse(info.blockId, 0L)
      if (now > 0) blockBytes(info.blockId) = now else blockBytes.remove(info.blockId)
      val a = acc(current)
      a.peakCached = math.max(a.peakCached, cached)
    }
  }

  val queryListener: QueryExecutionListener = new QueryExecutionListener {
    def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit =
      SparkCounters.this.synchronized {
        acc(current).scanRows += SparkCounters.inMemoryRows(qe.executedPlan)
      }
    def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = ()
  }
}

object SparkCounters {
  /** Output rows of the cached-relation scans in an executed plan. */
  def inMemoryRows(plan: SparkPlan): Long = plan match {
    case a: AdaptiveSparkPlanExec  => inMemoryRows(a.executedPlan)
    case s: QueryStageExec         => inMemoryRows(s.plan)
    case _: ReusedExchangeExec     => 0L // its input was scanned where first used
    case m: InMemoryTableScanExec  => m.metrics.get("numOutputRows").map(_.value).getOrElse(0L)
    case p => p.children.map(inMemoryRows).sum + p.subqueries.map(inMemoryRows).sum
  }
}

/** Spark counters of one span and all its descendants. */
final case class Totals(jobs: Long, tasks: Long, busyMs: Long, cpuMs: Double,
                        gcMs: Long, shuffleWrite: Long, shuffleRead: Long,
                        spill: Long, scanRows: Long, peakCachedMb: Double,
                        coreUtil: Double, driverGapMs: Double)

/** Per-span totals over a span and all its descendants. */
final class TraceReport(spans: Seq[Span], counters: SparkCounters, cores: Int) {
  private val children: Map[Int, Seq[Span]] = spans.groupBy(_.parent)

  def named(name: String, query: String = null): Seq[Span] =
    spans.filter(s => s.name == name && (query == null || s.query == query))
      .sortBy(_.t0Ns)
  def ofKind(kind: String): Seq[Span] = spans.filter(_.kind == kind).sortBy(_.t0Ns)

  /** The span and its descendants. */
  def subtree(s: Span): Seq[Span] =
    s +: children.getOrElse(s.id, Nil).flatMap(subtree)

  /** Descendants of `root` (itself included) with the given name. */
  def within(root: Span, name: String): Seq[Span] = subtree(root).filter(_.name == name)

  private def union(iv: Seq[(Long, Long)]): Long = {
    var total = 0L
    var end = Long.MinValue
    for ((a, b) <- iv.sortBy(_._1)) {
      val lo = math.max(a, end)
      if (b > lo) total += b - lo
      end = math.max(end, b)
    }
    total
  }

  /** Span time not covered by its child spans, in ms. */
  def selfMs(s: Span): Double =
    (s.t1Ns - s.t0Ns -
      union(children.getOrElse(s.id, Nil).map(c => (c.t0Ns, c.t1Ns)))) / 1e6

  /** Share of the span's wall time covered by its child spans. */
  def coverage(s: Span): Double = 1.0 - selfMs(s) / s.ms

  def totals(s: Span): Totals = {
    val accs = subtree(s).flatMap(d => counters.counters(d.id))
    val busy = accs.map(_.busyMs).sum
    val jobsMs = union(accs.flatMap(_.jobIntervals)
      .map { case (a, b) => (math.max(a, s.t0Ms), math.min(b, s.t1Ms)) })
    val wallMs = math.max(s.t1Ms - s.t0Ms, 1L)
    Totals(
      accs.map(_.jobs).sum, accs.map(_.tasks).sum, busy,
      accs.map(_.cpuNs).sum / 1e6, accs.map(_.gcMs).sum,
      accs.map(_.shuffleWrite).sum, accs.map(_.shuffleRead).sum,
      accs.map(_.spill).sum, accs.map(_.scanRows).sum,
      (if (accs.isEmpty) 0L else accs.map(_.peakCached).max) / 1048576.0,
      busy.toDouble / (wallMs * cores), math.max(0.0, s.ms - jobsMs))
  }

  /** `spark.<kind>.*`: per-span means over every span of one kind. */
  def sparkMetrics(kind: String): Seq[(String, Double, String)] = {
    val ts = ofKind(kind).map(totals)
    def mean(f: Totals => Double): Double =
      if (ts.isEmpty) 0.0 else ts.map(f).sum / ts.size
    Seq(
      ("jobs", mean(_.jobs.toDouble), "count"),
      ("tasks", mean(_.tasks.toDouble), "count"),
      ("task_busy_ms", mean(_.busyMs.toDouble), "ms"),
      ("cpu_ms", mean(_.cpuMs), "ms"),
      ("gc_ms", mean(_.gcMs.toDouble), "ms"),
      ("shuffle_write_bytes", mean(_.shuffleWrite.toDouble), "bytes"),
      ("shuffle_read_bytes", mean(_.shuffleRead.toDouble), "bytes"),
      ("spill_bytes", mean(_.spill.toDouble), "bytes"),
      ("scan_rows", mean(_.scanRows.toDouble), "rows"),
      ("cached_peak_mb", mean(_.peakCachedMb), "MB"),
      ("core_util", mean(_.coreUtil), "ratio"),
      ("driver_gap_ms", mean(_.driverGapMs), "ms"),
    ).map { case (m, v, u) => (s"spark.$kind.$m", v, u) }
  }

  /** `<layer>.self_ms`: self time of the layer's spans per iteration. */
  def selfByLayer(layers: Seq[String], iterations: Int): Seq[(String, Double, String)] =
    layers.map { l =>
      (s"$l.self_ms", spans.filter(_.layer == l).map(selfMs).sum / math.max(iterations, 1), "ms")
    }
}
