package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, udf}
import repro.events.SystemEvent

/** Hand-crafted event streams for deterministic engine-semantics tests. */
object TestEvents {

  private var id = 0L
  private def nextId(): Long = { id += 1; id }

  def net(agent: Long, ts: Long, subj: String, dstIp: String, amount: Long,
          op: String = "write", pid: Long = 1L): SystemEvent =
    SystemEvent(nextId(), agent, ts, "network", subj, pid, op, null, null, -1L,
      "10.0.0.50", 40000L, dstIp, 443L, amount)

  def start(agent: Long, ts: Long, parent: String, child: String,
            ppid: Long = 1L, cpid: Long = 2L): SystemEvent =
    SystemEvent(nextId(), agent, ts, "process", parent, ppid, "start", null,
      child, cpid, null, -1L, null, -1L, 0L)

  def file(agent: Long, ts: Long, subj: String, op: String, name: String,
           amount: Long = 100L, pid: Long = 1L): SystemEvent =
    SystemEvent(nextId(), agent, ts, "file", subj, pid, op, name, null, -1L,
      null, -1L, null, -1L, amount)

  def df(spark: SparkSession, events: Seq[SystemEvent]): DataFrame = {
    import spark.implicits._
    events.toDF()
  }

  /** `events` behind a filter that throws when evaluated: any Spark job
    * over the result fails, so an error of another kind shows that no job
    * ran before it.
    */
  def poisoned(events: DataFrame): DataFrame = {
    val explode = udf { (ts: Long) =>
      if (ts >= Long.MinValue) throw new IllegalStateException("a Spark job ran")
      true
    }
    events.filter(explode(col("ts")))
  }
}
