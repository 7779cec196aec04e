package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.events.SystemEvent
import repro.saql.Ast._

/** The multi-event matcher: matches the stream against the event patterns
  * of a SAQL query, honouring temporal relationships (`with evt1 -> evt2`)
  * and implicit attribute relationships (the same variable re-used across
  * patterns joins on the entity's identity attributes).
  *
  * Each pattern compiles to a Catalyst predicate; multi-pattern sequences
  * become inner joins whose conditions carry both the shared-variable
  * equalities and the temporal ordering of adjacent chain elements.
  */
object EventMatcher {

  /** Prefix every event column with the pattern alias: `evt1__ts`, …. */
  private def aliased(events: DataFrame, q: SaqlQuery, p: EventPattern): DataFrame =
    events.filter(Columns.patternPredicate(q, p))
      .select(SystemEvent.columns.map(c => col(c).as(s"${p.alias}__$c")): _*)

  /** Column of variable `v` as it occurs in pattern `alias` with `role`. */
  private def varCol(alias: String, role: String, kind: EntityKind,
                     attr: String): Column =
    col(s"${alias}__${Columns.entityColumn(kind, role, attr)}")

  /** All matches of the query's patterns: one row per matched event
    * sequence, with alias-prefixed columns, plus `__alert_ts` = timestamp
    * of the last event in the match (detection time).
    */
  def matches(events: DataFrame, q: SaqlQuery): DataFrame = {
    val order: Seq[EventPattern] = q.temporal match {
      case Some(chain) if chain.toSet == q.patterns.map(_.alias).toSet =>
        chain.map(a => q.patterns.find(_.alias == a).get)
      case _ => q.patterns
    }
    val occ = q.varOccurrences
    val chainPairs: Seq[(String, String)] =
      q.temporal.map(c => c.zip(c.tail)).getOrElse(Nil)

    var acc = aliased(events, q, order.head)
    var inAcc = Set(order.head.alias)
    for (p <- order.tail) {
      val right = aliased(events, q, p)
      // Shared-variable equalities between p and the already-joined aliases.
      val varConds = for {
        (_, occs) <- occ.toSeq
        (aR, roleR, declR) <- occs if aR == p.alias
        (aL, roleL, declL) <- occs if inAcc.contains(aL)
        idAttr <- Columns.identityAttrs(declR.kind)
      } yield varCol(aL, roleL, declL.kind, idAttr) ===
              varCol(aR, roleR, declR.kind, idAttr)
      // Temporal ordering for chain pairs now fully joined.
      val tsConds = chainPairs.collect {
        case (a, b) if b == p.alias && inAcc.contains(a) =>
          col(s"${a}__ts") < col(s"${p.alias}__ts")
        case (a, b) if a == p.alias && inAcc.contains(b) =>
          col(s"${p.alias}__ts") < col(s"${b}__ts")
      }
      val conds = varConds ++ tsConds
      acc =
        if (conds.nonEmpty) acc.join(right, conds.reduce(_ && _))
        else acc.crossJoin(right)
      inAcc += p.alias
    }
    val tsCols = order.map(p => col(s"${p.alias}__ts"))
    acc.withColumn("__alert_ts",
      if (tsCols.size == 1) tsCols.head else greatest(tsCols: _*))
  }

  /** Resolve a return item's [[FieldRef]] against the match output: the
    * alias-prefixed column of the variable's first occurrence (attribute
    * defaulted per entity kind — the paper's context-aware shortcut).
    */
  def returnColumn(q: SaqlQuery, ref: FieldRef): Column = {
    q.varOccurrences.get(ref.varName) match {
      case Some(occs) =>
        val (alias, role, decl) = occs.head
        varCol(alias, role, decl.kind, ref.attr.getOrElse(decl.kind.defaultAttr))
          .as(ref.colName)
      case None if q.patterns.exists(_.alias == ref.varName) =>
        val attr = ref.attr.getOrElse(
          throw new IllegalArgumentException(s"alias '${ref.varName}' needs an attribute"))
        val c = attr match {
          case "amount" => "amount"
          case "ts" | "time" => "ts"
          case "agentid" => "agentid"
          case "op" => "op"
          case a => throw new IllegalArgumentException(s"unknown event attribute '$a'")
        }
        col(s"${ref.varName}__$c").as(ref.colName)
      case None =>
        throw new IllegalArgumentException(s"unknown return variable '${ref.varName}'")
    }
  }

  /** Project matches to the query's `return` items (+ `__alert_ts`). With
    * `distinct`, keeps the earliest alert time per distinct row, so
    * detection latency reflects the first match.
    */
  def project(matchesDf: DataFrame, q: SaqlQuery): DataFrame = {
    val items = q.ret.items.map {
      case AttrRef(ref) => returnColumn(q, ref)
      case other =>
        throw new IllegalArgumentException(
          s"rule-based return items must be entity/event attributes, got $other")
    }
    val projected = matchesDf.select(items :+ col("__alert_ts"): _*)
    if (q.ret.distinct) {
      val cols = q.ret.items.collect { case AttrRef(r) => r.colName }
      projected.groupBy(cols.map(col): _*)
        .agg(min(col("__alert_ts")).as("__alert_ts"))
    } else projected
  }
}
