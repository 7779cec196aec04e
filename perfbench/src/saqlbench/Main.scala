package saqlbench

import java.nio.file.{Files, Paths}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, count, lit, sum, xxhash64}
import org.apache.spark.sql.types.DecimalType

/** A metric as printed: name, value, unit. */
final case class Metric(name: String, value: Double, unit: String)

/** Operations attempted and failed; a failure never aborts the run. */
final class Outcome {
  var attempted = 0L
  var failed = 0L
  private val reasons = mutable.ArrayBuffer.empty[String]

  /** Counts one operation; `check` returns the reason it is wrong, if so. */
  def op[A](what: String)(body: => A)(check: A => Option[String]): Option[A] = {
    attempted += 1
    try {
      val a = body
      check(a).foreach(fail(what, _))
      Some(a)
    } catch {
      case e: Exception =>
        fail(what, e.toString)
        None
    }
  }

  /** Marks an already counted operation as failed. */
  def fail(what: String, why: String): Unit = {
    failed += 1
    if (reasons.size < 20) reasons += s"$what: $why"
  }

  def failures: Seq[String] = reasons.toSeq
}

/** What one run hands back: its outcome, the end-to-end metrics, lines
  * for the report, and (traced run only) the per-layer metrics, which are
  * computed after Spark has stopped and its listener bus has drained.
  */
final case class RunResult(outcome: Outcome, endToEnd: Seq[Metric],
                           info: Seq[String], perLayer: () => Seq[Metric])

/** Everything a workload needs: the session, the options and the tracer. */
final class Ctx(val spark: SparkSession, val seed: Long, val seconds: Int,
                val traced: Boolean, val startedNs: Long, val sessionNs: Long,
                val cores: Int) {
  val tracer = new Tracer(spark.sparkContext)
  val counters = new SparkCounters
  /** (candidate rows, match rows) of each rule-query split, by label. */
  val matcherCounts = mutable.HashMap.empty[String, mutable.ArrayBuffer[(Long, Long)]]
  /** (state rows, windows) of each stateful split, by label. */
  val stateCounts = mutable.HashMap.empty[String, mutable.ArrayBuffer[(Long, Long)]]

  /** Turns tracing on, once per run: spans and both Spark listeners. */
  def traceOn(): Unit = {
    counters.startCached(spark.sparkContext.getRDDStorageInfo.map(i => i.memSize + i.diskSize).sum)
    spark.sparkContext.addSparkListener(counters)
    spark.listenerManager.register(counters.queryListener)
    tracer.enable(true)
  }

  /** Turns tracing off after the listeners have seen every traced event. */
  def traceOff(): Unit = {
    tracer.enable(false)
    counters.drain(spark.sparkContext)
    spark.sparkContext.removeSparkListener(counters)
    spark.listenerManager.unregister(counters.queryListener)
  }

  def report(): TraceReport = new TraceReport(tracer.spans, counters, cores)
}

object Stats {
  /** Linear-interpolation percentile (p in [0, 100]); NaN for no samples,
    * which only a run whose operations failed has.
    */
  def pct(xs: Seq[Double], p: Double): Double = if (xs.isEmpty) Double.NaN else {
    val s = xs.sorted
    val r = p / 100.0 * (s.size - 1)
    val lo = math.floor(r).toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (s(hi) - s(lo)) * (r - lo)
  }
  def median(xs: Seq[Double]): Double = pct(xs, 50)
  def ms(t0: Long, t1: Long): Double = (t1 - t0) / 1e6
}

object Main {

  private val Workloads: Map[String, Workload] =
    Seq(Demo8, Monitors20, Replay).map(w => w.name -> w).toMap

  /** Settings the workloads fix. 64 shuffle partitions and no broadcast
    * joins are the program's own test settings; the default parallelism
    * pins the partitioning of the generators' `rand(seed)` columns, so a
    * seed gives the same inputs on any core count.
    */
  val Settings: Seq[(String, String)] = Seq(
    "spark.sql.shuffle.partitions" -> "64",
    "spark.sql.autoBroadcastJoinThreshold" -> "-1",
    "spark.default.parallelism" -> "4",
  )

  private def usage(msg: String): Nothing = {
    System.err.println(s"saqlbench: $msg\nusage: --workload <${Workloads.keys.toSeq.sorted.mkString("|")}> " +
      "--seed <n> --seconds <s> --trace <0|1>")
    sys.exit(2)
  }

  def main(args: Array[String]): Unit = {
    val started = System.nanoTime()
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val wl = Workloads.getOrElse(opts.getOrElse("workload", usage("missing --workload")),
      usage(s"unknown workload '${opts("workload")}'"))
    val seed = opts.get("seed").flatMap(_.toLongOption).getOrElse(usage("bad --seed"))
    val seconds = opts.get("seconds").flatMap(_.toIntOption).filter(_ > 0).getOrElse(usage("bad --seconds"))
    val traced = opts.get("trace") match {
      case Some("1") => true
      case Some("0") => false
      case _         => usage("bad --trace")
    }
    val work = sys.props.getOrElse("saqlbench.work", ".bench_build")
    val cores = math.min(4, Runtime.getRuntime.availableProcessors())

    val builder = SparkSession.builder().master(s"local[$cores]").appName("saqlbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", Paths.get(work, "spark-local").toAbsolutePath.toString)
      .config("spark.sql.warehouse.dir", Paths.get(work, "warehouse").toAbsolutePath.toString)
    Settings.foreach { case (k, v) => builder.config(k, v) }
    val spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    val ctx = new Ctx(spark, seed, seconds, traced, started, System.nanoTime(), cores)

    val (result, pins) =
      try {
        val r = wl.run(ctx)
        (r, fingerprints(spark, wl, seed))
      } catch {
        case e: Throwable =>
          spark.stop()
          throw e
      }
    spark.stop() // drains the listener bus before the counters are read

    val context = Seq(
      "commit" -> sys.props.getOrElse("saqlbench.commit", "unknown"),
      "source_sha" -> sys.props.getOrElse("saqlbench.source", "unknown"),
      "nproc" -> Runtime.getRuntime.availableProcessors().toString,
      "master" -> s"local[$cores]",
      "jvm_heap_mb" -> (Runtime.getRuntime.maxMemory / 1048576).toString,
      "seed" -> seed.toString, "workload" -> wl.name, "seconds" -> seconds.toString,
      "trace" -> (if (traced) "1" else "0")) ++ Settings
    println("context " + context.map { case (k, v) => s"$k=$v" }.mkString(" "))
    pins.lines.foreach(println)
    result.info.foreach(println)
    val o = result.outcome
    println(f"error_rate ${if (o.attempted == 0) 0.0 else o.failed.toDouble / o.attempted} ratio (${o.failed}/${o.attempted} operations failed)")
    o.failures.foreach(f => println(s"failed $f"))
    val metrics = if (traced) result.perLayer() else result.endToEnd
    metrics.foreach(m => println(s"metric ${m.name} ${m.value} ${m.unit}"))
    val correct = o.attempted > 0 && o.failed == 0 && pins.matches
    println(json(correct, o.attempted, o.failed, metrics))
  }

  final case class Pins(lines: Seq[String], matches: Boolean)

  /** Row count plus an order-independent checksum over every column. */
  def fingerprint(df: DataFrame): String = {
    val r = df.agg(count(lit(1)), sum(xxhash64(df.columns.toIndexedSeq.map(col): _*).cast(DecimalType(38, 0)))).head()
    s"${r.getLong(0)}:${r.getDecimal(1)}"
  }

  /** Fingerprints of this run's input and queries, checked against the
    * pinned ones. The pinned input is the generator's output for seed 0,
    * so a changed generator shows whatever seed the run uses.
    */
  private def fingerprints(spark: SparkSession, wl: Workload, seed: Long): Pins = {
    val pinFile = Paths.get(sys.props.getOrElse("saqlbench.pins", "perfbench/fingerprints.txt"))
    val pinned: Map[String, String] =
      if (!Files.exists(pinFile)) Map.empty
      else Files.readAllLines(pinFile).asScala.map(_.trim).filter(l => l.nonEmpty && !l.startsWith("#"))
        .map(_.split("\\s+")).collect { case Array(k, v) => k -> v }.toMap
    val measured = Seq(
      s"queries.${wl.name}" -> Queries.fingerprint(wl.queries),
      s"input.${wl.inputName}.seed0" -> fingerprint(wl.generate(spark, 0L)),
    ) ++ (if (seed == 0L) Nil else Seq(s"input.${wl.inputName}.seed$seed" -> fingerprint(wl.generate(spark, seed))))
    val lines = measured.map { case (k, v) =>
      val verdict = pinned.get(k) match {
        case None             => "unpinned"
        case Some(p) if p == v => "pinned"
        case Some(p)          => s"DIFFERENT-WORKLOAD(pinned $p)"
      }
      s"fingerprint $k $v $verdict"
    }
    Pins(lines, measured.forall { case (k, v) => pinned.get(k).forall(_ == v) })
  }

  private def json(correct: Boolean, attempted: Long, failed: Long, ms: Seq[Metric]): String = {
    def num(d: Double): String =
      if (d.isNaN || d.isInfinite) "null"
      else if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString
      else d.toString
    val body = ms.map(m => s""""${m.name}": {"value": ${num(m.value)}, "unit": "${m.unit}"}""").mkString(", ")
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {$body}}"""
  }
}
