package repro.core

import org.apache.spark.sql.DataFrame
import scala.collection.mutable
import repro.cluster.DBSCAN
import repro.saql.Ast._
import Eval._

/** One detection alert, as the paper's error/alert reporter emits them. */
final case class AlertRecord(
    query: String,
    /** Window index (-1 for rule-based matches, which are not windowed). */
    win: Long,
    /** Detection time: last matched event (rule) or window end (stateful). */
    ts: Long,
    /** The query's `return` items, rendered. */
    values: Map[String, String],
) {
  override def toString: String =
    s"[$query] ts=$ts win=$win ${values.toSeq.sortBy(_._1).map { case (k, v) => s"$k=$v" }.mkString(", ")}"
}

/** The SAQL anomaly query engine.
  *
  * Dispatches a parsed query to its anomaly-model evaluator:
  *   - rule-based       -> multi-event matcher (Catalyst joins);
  *   - time-series      -> window states + `ss[k]` history ring + alert expr;
  *   - invariant-based  -> train on the first N windows, then detect;
  *   - outlier-based    -> per-window DBSCAN over group states.
  *
  * Runs over a bounded event DataFrame (the replayer's batch view of the
  * stream); [[repro.streaming.StreamingRunner]] executes the same compiled
  * operators incrementally on Structured Streaming.
  */
object QueryEngine {

  def run(events: DataFrame, q: SaqlQuery): Seq[AlertRecord] = {
    validate(q)
    q.modelType match {
      case RuleModel => runRule(events, q)
      case _         => checkStates(q, StateMaintainer.collectStates(StateMaintainer.states(events, q), q))
    }
  }

  /** Rejects a stateful query the checker cannot evaluate, naming it, so
    * the error comes before any Spark job runs.
    */
  def validate(q: SaqlQuery): Unit = if (q.modelType != RuleModel) {
    require(q.state.isDefined, s"query '${q.name}': stateful model needs a state block")
    require(q.window.isDefined, s"query '${q.name}': stateful model needs #time(...)")
    q.cluster.foreach(cb => require(cb.args.size >= 2,
      s"query '${q.name}': DBSCAN needs (eps, minPts) args, got ${cb.args}"))
  }

  // ------------------------------------------------------------------ rule

  private def runRule(events: DataFrame, q: SaqlQuery): Seq[AlertRecord] = {
    val projected = EventMatcher.project(EventMatcher.matches(events, q), q)
    val names = q.ret.items.collect { case AttrRef(r) => r.colName }
    projected.collect().toSeq.map { r =>
      val ts = r.getAs[Long]("__alert_ts")
      val vals = names.map(n => n -> String.valueOf(r.getAs[Any](n))).toMap
      AlertRecord(q.name, -1L, ts, vals)
    }.sortBy(_.ts)
  }

  // -------------------------------------------------------------- stateful

  /** The stateful checker: runs a [[validate]]d query's anomaly model over
    * its window states, `byWindow` as [[StateMaintainer.collectStates]]
    * returns them, on the driver.
    */
  private[core] def checkStates(q: SaqlQuery,
                                byWindow: Seq[(Long, Seq[StateMaintainer.StateRow])]): Seq[AlertRecord] = {
    val sb = q.state.get
    val w  = q.window.get
    val funcOf    = sb.defs.map(d => d.name -> d.func).toMap
    def defaultVal(field: String): Value =
      if (funcOf.get(field).contains("set")) SetV(Set.empty) else NumV(0.0)

    // (group key, window) -> state values; windows are few, keep them all.
    val history = mutable.HashMap.empty[(Seq[String], Long), Map[String, Value]]
    // Invariant variable per group.
    val inv = mutable.HashMap.empty[Seq[String], Value]
    val trainTotal = q.invariant.map(_.trainWindows).getOrElse(0)
    // Training covers the first `trainWindows` window *slots* of the
    // stream ("uses the first ten windows to train"), anchored at the
    // first window that carries any state.
    val firstWin = byWindow.headOption.map(_._1).getOrElse(0L)

    val alerts = Vector.newBuilder[AlertRecord]

    for ((win, rows) <- byWindow) {
      rows.foreach(r => history((r.key, win)) = r.vals)
      val training = q.invariant.isDefined && (win - firstWin) < trainTotal

      // DBSCAN over this window's group points, if the query clusters.
      val outlierOf: Map[Seq[String], Boolean] = q.cluster match {
        case Some(cb) =>
          val points = rows.map { r =>
            cb.points.map(f => r.vals.getOrElse(f.attr.getOrElse(f.varName),
              throw new IllegalArgumentException(s"unknown state field in cluster points: $f")).asNum).toArray
          }.toIndexedSeq
          val Seq(eps, minPts) = cb.args.take(2)
          val noise = DBSCAN.outliers(points, eps, minPts.toInt)
          rows.zipWithIndex.map { case (r, i) => r.key -> noise(i) }.toMap
        case None => Map.empty
      }

      for (r <- rows) {
        val env = new Env {
          def stateRef(idx: Int, field: String): Value =
            history.getOrElse((r.key, win - idx), Map.empty)
              .getOrElse(field, defaultVal(field))
          def attrRef(ref: FieldRef): Value = {
            val i = sb.groupBy.indexWhere(g =>
              g.varName == ref.varName &&
                (ref.attr.isEmpty || g.attr == ref.attr ||
                 (g.attr.isEmpty && ref.attr.isDefined)))
            if (i >= 0) StrV(r.key(i))
            else throw new IllegalArgumentException(
              s"'$ref' is not a group-by key of query '${q.name}'")
          }
          def invRef(name: String): Value = q.invariant match {
            case Some(ib) =>
              inv.getOrElseUpdate(r.key, Eval.eval(ib.init, this))
            case None =>
              throw new IllegalArgumentException(s"no invariant variable '$name'")
          }
          def clusterOutlier: Boolean = outlierOf.getOrElse(r.key, false)
        }

        if (training) {
          // Invariant update: a = eval(update) with the current `a` bound.
          val ib = q.invariant.get
          inv(r.key) = Eval.eval(ib.update, env)
        } else {
          val fire = q.alert.forall(a => Eval.eval(a, env).asBool)
          if (fire) {
            val vals = q.ret.items.map(item =>
              Eval.label(item) -> Eval.eval(item, env).render).toMap
            alerts += AlertRecord(q.name, win, win * w.slideMs + w.lengthMs, vals)
          }
          // Online invariants keep learning after training (each detected
          // novelty is absorbed once reported); offline ones stay frozen.
          q.invariant.filterNot(_.offline)
            .foreach(ib => inv(r.key) = Eval.eval(ib.update, env))
        }
      }
    }
    alerts.result().sortBy(a => (a.ts, a.values.toSeq.sortBy(_._1).mkString))
  }
}
