package repro.events

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** The paper's stream replayer: the demo stores monitoring data in
  * databases and replays it as a data stream, selecting hosts and a
  * start/end time (Fig. 4's web UI, here as an API).
  *
  * Two replay forms:
  *   - a bounded, time-ordered batch view (what the anomaly query engine
  *     consumes for a replayed interval);
  *   - an iterator of micro-batches, for incremental/streaming execution
  *     and for feed-rate simulation in the benchmarks.
  */
object StreamReplayer {

  /** Host + time-range selection, as in the replayer UI. */
  def select(events: DataFrame, agents: Seq[Long] = Nil,
             startMs: Long = 0L, endMs: Long = Long.MaxValue): DataFrame = {
    val inRange = events.filter(col("ts") >= startMs && col("ts") < endMs)
    if (agents.isEmpty) inRange
    else inRange.filter(col("agentid").isin(agents: _*))
  }

  /** The replayed stream in event order (ties broken by event id). */
  def ordered(events: DataFrame): DataFrame =
    events.orderBy(col("ts"), col("event_id"))

  /** Replay as consecutive micro-batches of `batchMs` event-time each,
    * over `[startMs, endMs)`. Batches may be empty; callers see every tick
    * like a streaming trigger would.
    */
  def microBatches(events: DataFrame, batchMs: Long, startMs: Long,
                   endMs: Long): Iterator[(Long, DataFrame)] = {
    require(batchMs > 0, "batchMs must be positive")
    val nBatches = math.max(1L, (endMs - startMs + batchMs - 1) / batchMs)
    Iterator.range(0L, nBatches).map { b =>
      val lo = startMs + b * batchMs
      val hi = math.min(endMs, lo + batchMs)
      b -> events.filter(col("ts") >= lo && col("ts") < hi)
    }
  }

  /** Write the replayed stream as JSON part-files, in no particular order —
    * the on-disk feed a Structured Streaming file source can tail. Returns
    * the directory written.
    */
  def writeFeed(events: DataFrame, dir: String): String = {
    events.write.mode("overwrite").json(dir)
    dir
  }
}
