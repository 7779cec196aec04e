package repro.core

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.saql.Ast._

/** The state maintainer: computes each sliding window's states from the
  * matched events, via Spark `groupBy(win, keys).agg(...)` — every
  * aggregate runs through Catalyst and is oracle-checkable against DuckDB.
  *
  * Window `i` of a `WindowSpec(len, slide)` covers `[i*slide, i*slide+len)`.
  * With `slide == len` (the paper's `#time(10 min)`) windows tumble; with
  * `slide < len` events are exploded into every window containing them.
  */
object StateMaintainer {

  /** Aggregate column for one `name := func(arg)` state definition. With
    * `onlyWhen`, rows where it does not hold feed the aggregate a null,
    * which every aggregate here skips.
    */
  def aggFor(q: SaqlQuery, d: StateDef, onlyWhen: Option[Column] = None): Column = {
    val arg = col(Columns.resolve(q, d.arg))
    val c = onlyWhen.fold(arg)(when(_, arg))
    val a = d.func match {
      case "avg"   => avg(c)
      case "sum"   => sum(c).cast(DoubleType)
      case "count" => count(c).cast(DoubleType)
      case "max"   => max(c).cast(DoubleType)
      case "min"   => min(c).cast(DoubleType)
      case "set"   => collect_set(c.cast(StringType))
      case f => throw new IllegalArgumentException(s"unknown aggregate '$f'")
    }
    a.as(d.name)
  }

  /** Add the window-index column `__win`; explodes for overlapping windows. */
  def assignWindows(events: DataFrame, w: WindowSpec): DataFrame = {
    if (w.slideMs == w.lengthMs)
      events.withColumn("__win", floor(col("ts") / w.slideMs))
    else {
      val iMax = floor(col("ts") / w.slideMs)
      val iMin = greatest(lit(0L),
        floor((col("ts") - w.lengthMs) / w.slideMs) + 1)
      events.withColumn("__win", explode(sequence(iMin, iMax)))
    }
  }

  /** Candidate events for a stateful query: union of its pattern
    * predicates (stateful SAQL queries have a single pattern; if several,
    * any match feeds the state).
    */
  def matchedEvents(events: DataFrame, q: SaqlQuery): DataFrame =
    events.filter(q.patterns.map(p => Columns.patternPredicate(q, p)).reduce(_ || _))

  /** Per-window, per-group state DataFrame:
    * `__win`, group-key columns (named by their SAQL ref), state columns.
    */
  def states(events: DataFrame, q: SaqlQuery): DataFrame = {
    val sb = q.state.getOrElse(
      throw new IllegalArgumentException(s"query '${q.name}' has no state block"))
    val w = q.window.getOrElse(
      throw new IllegalArgumentException(s"stateful query '${q.name}' needs #time(...)"))
    val keyCols = sb.groupBy.map(r => col(Columns.resolve(q, r)).as(r.colName))
    val aggs = sb.defs.map(d => aggFor(q, d))
    assignWindows(matchedEvents(events, q), w)
      .groupBy(col("__win") +: keyCols: _*)
      .agg(aggs.head, aggs.tail: _*)
  }

  /** Driver-side snapshot of one group's state in one window. */
  final case class StateRow(win: Long, key: Seq[String], vals: Map[String, Eval.Value])

  /** Collect the state DataFrame into window-ordered driver rows:
    * (windowIndex -> rows), windows sorted ascending. Group keys are
    * stringified; values become [[Eval.Value]]s.
    */
  def collectStates(statesDf: DataFrame, q: SaqlQuery): Seq[(Long, Seq[StateRow])] = {
    val sb = q.state.get
    byWindow(statesDf.collect().toSeq.map(
      stateRow(_, q, sb.groupBy.map(_.colName), identity)))
  }

  /** Group-by event columns of a stateful query, in group-by order. */
  private[core] def keyColumns(q: SaqlQuery): Seq[String] =
    q.state.get.groupBy.map(Columns.resolve(q, _))

  /** Window states of several single-pattern stateful queries in one Spark
    * job. The queries must share one window and their group-by keys must
    * resolve to the same event columns ([[keyColumns]]). The job filters by
    * the OR of the pattern predicates, assigns windows once and groups by
    * the shared keys. Each query contributes a presence count of its own
    * matching events plus its state definitions as aggregates over only
    * those events. Returns, per query and in order, what
    * `collectStates(states(events, q), q)` returns: a (window, key) enters a
    * query's states only if one of its own events fell in it.
    */
  private[core] def sharedStates(events: DataFrame, qs: Seq[SaqlQuery]): Seq[Seq[(Long, Seq[StateRow])]] = {
    val keys = keyColumns(qs.head).zipWithIndex.map { case (c, j) => col(c).as(s"__k$j") }
    val flags = qs.indices.map(i => col(s"__p$i"))
    val flagged = events.select(col("*") +: qs.zipWithIndex.map { case (q, i) =>
      Columns.patternPredicate(q, q.patterns.head).as(s"__p$i")
    }: _*).filter(flags.reduce(_ || _))
    val aggs = qs.zipWithIndex.flatMap { case (q, i) =>
      count(when(flags(i), 1)).as(s"__n$i") +:
        q.state.get.defs.map(d => aggFor(q, d, Some(flags(i))).as(s"__s${i}_${d.name}"))
    }
    val rows = assignWindows(flagged, qs.head.window.get)
      .groupBy(col("__win") +: keys: _*)
      .agg(aggs.head, aggs.tail: _*)
      .collect().toSeq
    val keyNames = keys.indices.map(j => s"__k$j")
    qs.zipWithIndex.map { case (q, i) =>
      byWindow(rows.filter(_.getAs[Long](s"__n$i") > 0)
        .map(stateRow(_, q, keyNames, n => s"__s${i}_$n")))
    }
  }

  /** Decode one aggregated row: `__win`, the group key from `keyNames` (in
    * group-by order) and each state definition from column `valueCol(name)`.
    */
  private def stateRow(r: Row, q: SaqlQuery, keyNames: Seq[String],
                       valueCol: String => String): StateRow = {
    val win = r.getAs[Long]("__win")
    val key = keyNames.map(k => String.valueOf(r.getAs[Any](k)))
    val vals: Map[String, Eval.Value] = q.state.get.defs.map { d =>
      val v: Eval.Value = d.func match {
        case "set" =>
          Eval.SetV(r.getAs[scala.collection.Seq[String]](valueCol(d.name)).toSet)
        case _ =>
          val x = r.getAs[Any](valueCol(d.name))
          Eval.NumV(x match {
            case null      => 0.0
            case n: Number => n.doubleValue()
            case o         => o.toString.toDouble
          })
      }
      d.name -> v
    }.toMap
    StateRow(win, key, vals)
  }

  private def byWindow(rows: Seq[StateRow]): Seq[(Long, Seq[StateRow])] =
    rows.groupBy(_.win).toSeq.sortBy(_._1)
}
