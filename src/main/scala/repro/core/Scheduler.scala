package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.saql.Ast._

/** The concurrent query scheduler with the paper's master-dependent-query
  * scheme.
  *
  * Concurrent queries are divided into groups by semantic compatibility
  * (same pattern shape: event types, operations, window), and each group
  * reads one copy of the stream:
  *   - A group of single-pattern stateful queries whose group-by keys
  *     resolve to the same event columns runs as one Spark job
  *     ([[StateMaintainer.sharedStates]]): one scan filtered by the OR of
  *     the members' patterns, one shuffle by (window, keys) computing every
  *     member's states as conditional aggregates, and one collect that
  *     feeds each member's driver-side checker.
  *   - Any other group gets a master whose match set covers every member —
  *     the member whose constraints subsume all others', or, failing a
  *     syntactic subsumption witness, a synthesized union-of-constraints
  *     master. Only the master touches the stream; its matched events are
  *     cached and each dependent runs over them.
  *
  * [[ExecStats]] counts what the paper's scheme optimises: stream rows
  * ingested (one full-scan copy per group vs per query) and rows copied
  * into per-query buffers.
  */
object Scheduler {

  /** Structural compatibility key: queries sharing it can share a stream
    * copy. Multi-pattern (sequence) queries only group with identically
    * shaped sequences.
    */
  final case class Signature(shape: Seq[(String, Seq[String])],
                             window: Option[WindowSpec])

  def signature(q: SaqlQuery): Signature = Signature(
    q.patterns.map(p => (Columns.eventTypeOf(p.obj.kind), p.ops.sorted)),
    q.window)

  /** All attribute predicates of a query, as comparable (attrPath, op,
    * value) triples, pattern position included.
    */
  private def predTriples(q: SaqlQuery): Set[(Int, String, String, String, String)] =
    (q.patterns.zipWithIndex.flatMap { case (p, i) =>
      p.subj.preds.map(ap => (i, "subj", ap.attr, ap.op, ap.value)) ++
        p.obj.preds.map(ap => (i, "obj", ap.attr, ap.op, ap.value))
    } ++ q.globals.map(g => (-1, "global", g.attr, g.op, g.value))).toSet

  /** Syntactic subsumption: A's matches cover B's if every constraint of A
    * also constrains B (B is at least as restrictive).
    */
  def subsumes(a: SaqlQuery, b: SaqlQuery): Boolean =
    signature(a) == signature(b) && predTriples(a).subsetOf(predTriples(b))

  /** One scheduled group: the member master (if one subsumes all) or a
    * synthesized union filter, plus the dependent queries.
    */
  final case class Group(sig: Signature, members: Seq[SaqlQuery],
                         master: Option[SaqlQuery]) {
    /** Filter selecting every event any member's patterns could match. */
    def masterFilter(events: DataFrame): DataFrame = master match {
      case Some(m) =>
        events.filter(
          m.patterns.map(p => Columns.patternPredicate(m, p)).reduce(_ || _))
      case None =>
        events.filter(members.flatMap(q =>
          q.patterns.map(p => Columns.patternPredicate(q, p))).reduce(_ || _))
    }

    /** Whether the group runs as one shared state job: every member is a
      * single-pattern stateful query, and all group by the same columns.
      */
    def shared: Boolean =
      members.forall(q => q.state.isDefined && q.patterns.size == 1) &&
        members.map(StateMaintainer.keyColumns).distinct.size == 1
  }

  /** Group queries by compatibility and elect masters. */
  def group(queries: Seq[SaqlQuery]): Seq[Group] =
    queries.groupBy(signature).toSeq.sortBy(_._2.head.name).map {
      case (sig, members) =>
        val master = members.find(m => members.forall(o => subsumes(m, o)))
        Group(sig, members, master)
    }

  /** Execution statistics for the T3 comparison. */
  final case class ExecStats(
      queries: Int,
      groups: Int,
      /** Full stream scans performed (stream rows x scan count). */
      rowsScanned: Long,
      /** Rows materialised into per-query buffers (the "data copies"): the
        * stream copy each query or group reads, plus, in a master group,
        * the master's output once per dependent. A shared state job fills
        * no per-query buffer.
        */
      rowsCopied: Long,
      wallMs: Long)

  final case class ScheduledRun(alerts: Map[String, Seq[AlertRecord]],
                                stats: ExecStats)

  /** Baseline arm: every query ingests its own copy of the full stream —
    * how un-shared CEP engines (Siddhi/Esper/Flink jobs) execute
    * concurrent queries.
    */
  def runIndependent(events: DataFrame, queries: Seq[SaqlQuery]): ScheduledRun = {
    val t0 = System.nanoTime()
    val n  = events.count()
    val alerts = queries.map(q => q.name -> QueryEngine.run(events, q)).toMap
    val wall = (System.nanoTime() - t0) / 1_000_000
    ScheduledRun(alerts,
      ExecStats(queries.size, queries.size, n * queries.size,
                n * queries.size, wall))
  }

  /** SAQL arm: one stream copy per group; a shared group is one state
    * job, the members of any other group read the master's (much smaller)
    * matched-event output.
    */
  def runMasterDependent(events: DataFrame, queries: Seq[SaqlQuery]): ScheduledRun = {
    queries.foreach(QueryEngine.validate)
    val t0 = System.nanoTime()
    val n  = events.count()
    val groups = group(queries)
    var scanned = 0L
    var copied  = 0L
    val alerts = Map.newBuilder[String, Seq[AlertRecord]]
    for (g <- groups) {
      scanned += n         // one full scan feeds the whole group
      copied += n          // the group's single stream copy
      if (g.shared) {
        val states = StateMaintainer.sharedStates(events, g.members)
        for ((q, byWindow) <- g.members.zip(states))
          alerts += q.name -> QueryEngine.checkStates(q, byWindow)
      } else {
        val masterDf = g.masterFilter(events).cache()
        val m = masterDf.count()
        for (q <- g.members) {
          // Dependent execution over the master's intermediate results: the
          // engine re-applies the dependent's own (stricter) predicates.
          alerts += q.name -> QueryEngine.run(masterDf, q)
          if (g.members.size > 1) copied += m // dependent's view of master output
        }
        masterDf.unpersist()
      }
    }
    val wall = (System.nanoTime() - t0) / 1_000_000
    ScheduledRun(alerts.result(),
      ExecStats(queries.size, groups.size, scanned, copied, wall))
  }
}
